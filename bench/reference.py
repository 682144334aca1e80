"""Reference results computed from the generator's own records.

Nothing here imports the program under test.  The ranker applies the
documented discovery filters and score to the generator's provider and
service records; the rating helpers give the documented reputation.  Exact
rational arithmetic is used throughout, and values are quantized half-up as
documented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from math import floor


def _half_up(value: Fraction, places: int) -> Decimal:
    scale = 10 ** places
    units = floor(value * scale + Fraction(1, 2))
    return Decimal(units).scaleb(-places)


def score(reputation, cost, response_time) -> Decimal:
    """0.5·rep/5 + 0.25·(1 − min(cost,100)/100) + 0.25·(1 − min(rt,60)/60), 4 places."""
    rep, cost, rt = Fraction(reputation), Fraction(cost), Fraction(response_time)
    total = (Fraction(1, 2) * rep / 5
             + Fraction(1, 4) * (1 - min(cost, Fraction(100)) / 100)
             + Fraction(1, 4) * (1 - min(rt, Fraction(60)) / 60))
    return _half_up(total, 4)


def mean_rating(ratings) -> Decimal:
    """Mean of the ratings, 2 places."""
    return _half_up(sum(Fraction(r) for r in ratings) / len(ratings), 2)


@dataclass
class Request:
    """One discovery request as the generator chose it."""

    skills: list = field(default_factory=list)       # [(skill, minimum or None)]
    knowledge: list = field(default_factory=list)    # any-of
    abilities: list = field(default_factory=list)    # all-of
    kind: str = ""
    contexts: list = field(default_factory=list)     # any-of
    inputs: list = field(default_factory=list)       # available input types
    outputs: list = field(default_factory=list)      # wanted output types
    qos: list = field(default_factory=list)          # [(name, Decimal)]

    def line(self) -> str:
        words = ["DISCOVER"]
        for skill, minimum in self.skills:
            words.append(f"skill={skill}" + (f":{minimum}" if minimum is not None else ""))
        for key, values in (("knowledge", self.knowledge), ("ability", self.abilities),
                            ("context", self.contexts), ("input", self.inputs),
                            ("output", self.outputs)):
            if values:
                words.append(f"{key}={','.join(values)}")
        if self.kind:
            words.append(f"kind={self.kind}")
        words += [f"qos.{name}={bound}" for name, bound in self.qos]
        return " ".join(words)


def reputation(service) -> Decimal:
    """A service's reputation at load: the mean of its prior ratings, if any."""
    if service.priors:
        return mean_rating([rating for _, rating in service.priors])
    return service.reputation


def rank(registry, request: Request) -> list:
    """Ranked ``(service, provider, score)`` for ``request``, best first."""
    ranked = []
    for s in registry.services.values():
        p = registry.providers[s.provider]
        if request.skills or request.knowledge or request.abilities:
            if not p.human:
                continue  # skills, knowledge and abilities live on human capabilities
        if any(skill not in p.skills for skill, _ in request.skills):
            continue
        if any(minimum is not None and p.skills[skill] < minimum for skill, minimum in request.skills):
            continue
        if request.knowledge and not set(request.knowledge) & set(p.knowledge):
            continue
        if any(a not in p.abilities for a in request.abilities):
            continue
        if request.contexts and not set(request.contexts) & set(s.contexts):
            continue
        if request.kind and request.kind != s.kind:
            continue
        if request.inputs or request.outputs:
            if not {t for _, t in s.inputs} <= set(request.inputs):
                continue
            if not set(request.outputs) <= {t for _, t in s.outputs}:
                continue
        if not s.condition_holds:
            continue  # discovery runs with no clock, so only conditions apply
        rep = reputation(s)
        bounds = dict(request.qos)
        if "min_reputation" in bounds and rep < bounds["min_reputation"]:
            continue
        if "max_cost" in bounds and s.cost > bounds["max_cost"]:
            continue
        if "max_response_time" in bounds and s.response_time > bounds["max_response_time"]:
            continue
        ranked.append((s.name, s.provider, score(rep, s.cost, s.response_time)))
    ranked.sort(key=lambda r: (-r[2], r[0]))
    return ranked
