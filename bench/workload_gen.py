"""Seeded input generator for the benchmark.

Everything the program under test receives is written here from the seed
alone: a ``.kb`` registry of providers and services, the ``DISCOVER`` lines,
the lifecycle operation script, and a chat scenario (``.scn`` with its
``.cap`` / ``.srv`` files).  The generator never imports the program; it
keeps its own records of what it wrote, and the references in
``reference.py`` work from those records.

The shape of every input (how many providers, services, skills per provider,
requests per criteria mix, events per kind) is fixed; the seed chooses the
terms, levels, QoS values, contexts and orders.  Graph size and the cost mix
therefore stay the same from seed to seed.

Usage::

    python3 bench/workload_gen.py --seed 7 --out .bench_out/inputs-7
"""

from __future__ import annotations

import argparse
import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import reference

REPO = Path(__file__).resolve().parent.parent
BASE_KB = REPO / "src" / "soa_hitlcps" / "data" / "base.kb"

# Registry size for discover-read and lifecycle-write (see README.md).
N_PROVIDERS = 16
N_PATIENTS = 10
N_NURSES = 6
CONTEXTS = ("clinic", "home", "wardA", "wardB", "wardC")
KIND_CLASS = {
    "sensing": "SensingService",
    "actuating": "ActuatingService",
    "communicating": "CommunicatingService",
    "processing": "ProcessingService",
}
# Instance-level properties the registry declares on demand; the signatures
# must equal the program's, or loading the graph would be a conflict.
PLUMBING = (
    ("hasSkillLevel", "HumanCapability", "Skill"),
    ("hasAbilityLevel", "HumanCapability", "Ability"),
    ("hasPerformanceLevel", "HumanCapability", "PerformanceFactor"),
    ("hasPreferenceValue", "HumanCapability", "Preference"),
    ("hasCriteria", "Experience", "Property"),
)
# Properties written by service effects.
EFFECT_PROPERTIES = (
    ("advisedBy", "PhysicalThing", "PhysicalThing"),
    ("treatedIn", "PhysicalThing", "Context"),
    ("awaitingCare", "PhysicalThing", "PhysicalThing"),
    ("monitoredBy", "PhysicalThing", "Service"),
)

LIFECYCLE_EPISODE = 32    # operations per lifecycle episode
SCENARIO_CONVERSATIONS = 12


def taxonomy(base_text: str) -> dict:
    """Taxonomy terms by class, read from the shipped base vocabulary."""
    terms: dict = {}
    for match in re.finditer(r"^INDIVIDUAL (\S+) TYPE (\S+)$", base_text, re.M):
        terms.setdefault(match.group(2), []).append(match.group(1))
    return {cls: sorted(names) for cls, names in terms.items()}


def _dec(value) -> Decimal:
    return Decimal(value).quantize(Decimal("0.1"))


# --------------------------------------------------------------------------
# Registry records


@dataclass
class Provider:
    name: str
    human: bool
    contexts: list
    skills: dict = field(default_factory=dict)        # skill -> level 1..7
    knowledge: list = field(default_factory=list)
    abilities: dict = field(default_factory=dict)
    performance: dict = field(default_factory=dict)
    education: str = ""
    hardware: str = ""
    software: str = ""
    programmed: list = field(default_factory=list)

    @property
    def cap(self) -> str:
        return self.name + "Capability"


@dataclass
class Service:
    name: str
    provider: str
    kind: str
    reputation: Decimal
    cost: Decimal
    response_time: Decimal
    contexts: list
    inputs: list            # [(name, type)]
    outputs: list           # [(name, type)]
    parallelism: int
    preconditions: list     # flat pattern texts
    effects: list           # [(ADD|DEL, subject, predicate, object)] with ?vars
    limitations: list       # flat limitation texts
    condition_holds: bool   # truth of every ``condition`` limitation
    location: str = ""      # the ``location`` limitation, if any
    window: tuple = ()      # the ``time_window`` limitation, if any
    priors: list = field(default_factory=list)  # [(rater, rating Decimal)]


@dataclass
class Registry:
    providers: dict
    services: dict
    patients: dict          # name -> sorted contexts (may be empty)
    nurses: dict            # name -> context
    awaiting: list          # [(patient, provider)] facts present at load


def build_registry(seed: int, n_providers: int = N_PROVIDERS) -> Registry:
    rng = random.Random(f"registry-{seed}")
    tax = taxonomy(BASE_KB.read_text(encoding="utf-8"))
    skills, knowledge = tax["Skill"], tax["Knowledge"]
    providers, services = {}, {}
    for i in range(n_providers):
        human = i % 4 != 3
        name = f"{'hum' if human else 'mac'}{i:03d}"
        provider = Provider(name, human, sorted(rng.sample(CONTEXTS, 1 + i % 2)))
        if human:
            for skill in rng.sample(skills, 2 + i % 3):
                provider.skills[skill] = rng.randint(1, 7)
            provider.knowledge = sorted(rng.sample(knowledge, 1 + i % 2))
            provider.abilities = {rng.choice(tax["Ability"]): rng.randint(1, 7)}
            provider.performance = {rng.choice(tax["PerformanceFactor"]): rng.randint(1, 7)}
            provider.education = rng.choice(tax["Education"])
        else:
            provider.hardware, provider.software = f"hw{i:03d}", f"sw{i:03d}"
            provider.programmed = [rng.choice(skills)]
        providers[name] = provider
        for j in range(1 + i % 2):
            service = _build_service(rng, provider, f"svc{i:03d}{'ab'[j]}", len(services))
            services[service.name] = service
    patients = {}
    for k in range(N_PATIENTS):
        # every third patient has no context, so the ward precondition fails
        contexts = [] if k % 3 == 2 else sorted(rng.sample(CONTEXTS[2:], 1 + k % 2))
        patients[f"pat{k:02d}"] = contexts
    nurses = {f"nurse{k:02d}": CONTEXTS[k % len(CONTEXTS)] for k in range(N_NURSES)}
    humans = [p for p in providers.values() if p.human]
    awaiting = sorted((pat, p.name) for pat in patients for p in rng.sample(humans, 2))
    return Registry(providers, services, patients, nurses, awaiting)


def _build_service(rng, provider: Provider, name: str, k: int) -> Service:
    """The ``k``-th service; its kind and which limitations it has follow from ``k``."""
    if provider.human:
        kind = ("processing", "communicating", "processing", "actuating")[k % 4]
    else:
        kind = ("sensing", "communicating", "actuating", "sensing")[k % 4]
    inputs, outputs, preconditions, effects = [], [], [], []
    if kind in ("processing", "actuating"):
        inputs = [("patient", "Human")]
        outputs = [("advice", "Advice")] if kind == "processing" else [("action", "Treatment")]
        preconditions = ["?patient hasContext ?ward"]
        effects = [
            ("ADD", "?patient", "advisedBy", provider.name),
            ("ADD", "?patient", "treatedIn", "?ward"),
            ("DEL", "?patient", "awaitingCare", provider.name),
        ]
    elif kind == "sensing":
        inputs = [("patient", "Human")]
        outputs = [("vitals", "VitalSigns")]
        effects = [("ADD", "?patient", "monitoredBy", name)]
    else:
        outputs = [("alert", "Alert")]
        effects = [("ADD", "?consumer", "consumes", name)]
    service = Service(
        name=name,
        provider=provider.name,
        kind=kind,
        reputation=_dec(rng.randint(20, 50) / 10),
        cost=_dec(rng.randint(0, 1300) / 10),
        response_time=_dec(rng.randint(0, 800) / 10),
        contexts=sorted(rng.sample(CONTEXTS, 1 + k % 2)),
        inputs=inputs,
        outputs=outputs,
        parallelism=1 + k % 3,
        preconditions=preconditions,
        effects=effects,
        limitations=[],
        condition_holds=True,
    )
    if k % 3 == 0:
        service.location = rng.choice(CONTEXTS)
        service.limitations.append(f"location {service.location}")
    if k % 5 == 1:
        start = rng.randint(0, 40)
        service.window = (start, start + 60)
        service.limitations.append(f"time_window {start} {start + 60}")
    if k % 7 == 3:
        # every other such condition holds; the seed picks the context
        service.condition_holds = k % 14 == 3
        choices = [c for c in CONTEXTS if (c in provider.contexts) == service.condition_holds]
        service.limitations.append(f"condition {provider.name} hasContext {rng.choice(choices)}")
    for _ in range(k % 3):
        service.priors.append((f"nurse{rng.randrange(N_NURSES):02d}", Decimal(rng.randint(1, 5))))
    return service


def registry_kb_text(reg: Registry) -> str:
    """The registry as a ``.kb`` document: base vocabulary plus instances."""
    out = [BASE_KB.read_text(encoding="utf-8").rstrip("\n")]
    for prop, domain, range_ in PLUMBING + EFFECT_PROPERTIES:
        out.append(f"PROPERTY {prop} DOMAIN {domain} RANGE {range_}")
    ind = lambda name, cls: out.append(f"INDIVIDUAL {name} TYPE {cls}")  # noqa: E731
    fact = lambda s, p, o: out.append(f"FACT {s} {p} {o}")  # noqa: E731
    for ctx in CONTEXTS:
        ind(ctx, "Context")
    for p in reg.providers.values():
        cap = p.cap
        fact(p.name, "hasCapability", cap)
        for ctx in p.contexts:
            fact(p.name, "hasContext", ctx)
        if p.human:
            ind(p.name, "PhysicalThing")
            ind(cap, "HumanCapability")
            for skill, level in sorted(p.skills.items()):
                fact(cap, "hasHumanSkill", skill)
                fact(cap, "hasSkillLevel", f'"{skill}:{level}"')
            for term in p.knowledge:
                fact(cap, "hasHumanKnowledge", term)
            for ability, level in sorted(p.abilities.items()):
                fact(cap, "hasAbility", ability)
                fact(cap, "hasAbilityLevel", f'"{ability}:{level}"')
            for factor, level in sorted(p.performance.items()):
                fact(cap, "hasPerformanceFactor", factor)
                fact(cap, "hasPerformanceLevel", f'"{factor}:{level}"')
            fact(cap, "hasEducation", p.education)
        else:
            spec = p.name + "Specification"
            ind(p.name, "Machine")
            ind(cap, "MachineCapability")
            ind(spec, "MachineSpecification")
            fact(cap, "hasSpecification", spec)
            ind(p.hardware, "Hardware")
            fact(spec, "hasHardware", p.hardware)
            ind(p.software, "Software")
            fact(spec, "hasSoftware", p.software)
            for skill in p.programmed:
                fact(cap, "hasProgrammedSkill", skill)
    for s in reg.services.values():
        profile, props, qos = s.name + "Profile", s.name + "Properties", s.name + "Qos"
        ind(s.name, "Service")
        ind(s.name, KIND_CLASS[s.kind])
        if not reg.providers[s.provider].human:
            ind(s.name, "MachineService")
        fact(s.name, "providedBy", s.provider)
        fact(s.provider, "provides", s.name)
        fact(s.name, "presents", profile)
        ind(profile, "ServiceProfile")
        fact(profile, "hasServiceType", KIND_CLASS[s.kind])
        fact(profile, "degreeOfParallelism", s.parallelism)
        for pname, ptype in s.inputs:
            fact(profile, "hasInput", f'"{pname}:{ptype}"')
        for pname, ptype in s.outputs:
            fact(profile, "hasOutput", f'"{pname}:{ptype}"')
        for text in s.preconditions:
            fact(profile, "hasPrecondition", f'"{text}"')
        for verb, subj, pred, obj in s.effects:
            fact(profile, "hasEffect", f'"{verb} {subj} {pred} {obj}"')
        for text in s.limitations:
            fact(profile, "hasLimitation", f'"{text}"')
        fact(profile, "hasProperty", props)
        ind(props, "Property")
        fact(props, "includeCapability", reg.providers[s.provider].cap)
        for ctx in s.contexts:
            fact(props, "includeContext", ctx)
        fact(props, "includeQoS", qos)
        ind(qos, "QoS")
        fact(qos, "reputationValue", s.reputation)
        fact(qos, "costValue", s.cost)
        fact(qos, "responseTimeValue", s.response_time)
        for n, (rater, rating) in enumerate(s.priors, start=1):
            node = f"{s.name}Exp{n}"
            ind(node, "Experience")
            fact(node, "experienceOf", s.name)
            fact(node, "ratedBy", rater)
            fact(node, "ratingValue", _dec(rating))
            fact(reg.providers[s.provider].cap, "hasExperience", node)
    for name, contexts in reg.patients.items():
        ind(name, "Human")
        for ctx in contexts:
            fact(name, "hasContext", ctx)
    for name, ctx in reg.nurses.items():
        ind(name, "Human")
        fact(name, "hasContext", ctx)
    for patient, provider in reg.awaiting:
        fact(patient, "awaitingCare", provider)
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# DISCOVER requests for discover-read

# Criteria mixes and how many requests of each one round holds, in order of
# cost on today's code (graph triples visited: about 60k, 80k, 120k, 130k,
# 200k and 460k per request at N=16).  The counts put the median inside the
# 130k group and the 90th percentile inside the 200k group, away from the
# jumps in cost between groups; the seed picks the terms.
_MIXES = (
    ("kind", 3), ("kind+qos", 2), ("io", 2),
    ("context", 3), ("skill", 2), ("skill:min+qos", 2),
    ("knowledge+context+qos", 4),
    ("skill+knowledge", 6), ("ability+skill", 5), ("skill+skill:min", 5),
    ("skill:min+knowledge+context", 12),
    ("skill+skill+knowledge+context", 2),
)


def discover_requests(seed: int, reg: Registry) -> list:
    rng = random.Random(f"discover-{seed}")
    tax = taxonomy(BASE_KB.read_text(encoding="utf-8"))
    humans = [p for p in reg.providers.values() if p.human]
    requests = []
    for mix in (mix for mix, n in _MIXES for _ in range(n)):
        # draw the terms from one provider, so that narrow requests can match
        p = rng.choice(humans)
        own = sorted(p.skills)
        req = reference.Request()
        if mix.startswith("kind"):
            req.kind = rng.choice(sorted(KIND_CLASS))
        if mix == "context":
            req.contexts = sorted(rng.sample(CONTEXTS, 2))
        if mix == "io":
            req.kind = rng.choice(("processing", "sensing", "actuating"))
            req.inputs = ["Human"]
            req.outputs = [{"processing": "Advice", "sensing": "VitalSigns",
                            "actuating": "Treatment"}[req.kind]]
        if "skill" in mix:
            req.skills.append((own[0], None))
        if "skill:min" in mix:
            skill = own[-1] if "skill+skill:min" in mix else own[0]
            minimum = max(1, min(7, p.skills[skill] + rng.randint(-2, 1)))
            if "skill+skill:min" in mix:
                req.skills.append((skill, minimum))
            else:
                req.skills[0] = (skill, minimum)
        if mix == "skill+skill+knowledge+context":
            req.skills.append((own[1], None))
        if "knowledge" in mix:
            extra = rng.choice(tax["Knowledge"])
            req.knowledge = sorted({p.knowledge[0], extra})
        if mix.endswith("+context"):
            req.contexts = [rng.choice(CONTEXTS)]
        if mix == "knowledge+context+qos":
            req.contexts = sorted(rng.sample(CONTEXTS, 2))
        if mix == "ability+skill":
            req.abilities = sorted(p.abilities)
        if mix.endswith("qos"):
            req.qos.append(("max_cost", Decimal(rng.randint(40, 110))))
            if "skill" in mix:
                req.qos.append(("min_reputation", _dec(rng.randint(15, 40) / 10)))
            if "knowledge" in mix:
                req.qos.append(("max_response_time", Decimal(rng.randint(20, 70))))
        requests.append(req)
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------------------
# Lifecycle operation script for lifecycle-write


@dataclass
class LifecycleOp:
    service: str
    consumer: str
    inputs: dict            # name -> individual
    now: int
    rating: Decimal
    status: str             # completed | rejected
    reason: str             # "" | limitation | precondition
    effects: list           # ground [(ADD|DEL, s, p, o)] when completed

    def line(self) -> str:
        inputs = ",".join(f"{k}={v}" for k, v in sorted(self.inputs.items())) or "-"
        effects = ";".join(" ".join(e) for e in self.effects) or "-"
        return "\t".join((self.service, self.consumer, inputs, str(self.now), str(self.rating),
                          self.status, self.reason or "-", effects))


# One slot of the lifecycle script: six invocations that complete (by service
# kind), one rejected by a limitation and one by a precondition.
_SLOT = ("processing", "processing", "actuating", "sensing", "sensing", "communicating",
         "limitation", "precondition")


def lifecycle_ops(seed: int, reg: Registry) -> list:
    """One episode of operations, LIFECYCLE_EPISODE // 8 slots in a seeded order."""
    rng = random.Random(f"lifecycle-{seed}")
    invocable = [s for s in reg.services.values() if s.condition_holds]
    pools = {kind: [s for s in invocable if s.kind == kind] for kind in _SLOT[:6]}
    pools["limitation"] = [s for s in pools["processing"] if s.location or s.window]
    pools["precondition"] = pools["processing"]
    patients_ok = [p for p, ctx in reg.patients.items() if ctx]
    patients_bad = [p for p, ctx in reg.patients.items() if not ctx]
    ops = []
    for _ in range(LIFECYCLE_EPISODE // 8):
        plan = list(_SLOT)
        rng.shuffle(plan)
        for want in plan:
            s = rng.choice(pools[want])
            patients = patients_bad if want == "precondition" else patients_ok
            ops.append(_lifecycle_op(rng, reg, s, patients, want))
    return ops


def _consumer_ok(rng, reg, service) -> str:
    """A nurse that meets the service's location limitation (nurses cover every context)."""
    return rng.choice([n for n, c in sorted(reg.nurses.items())
                       if not service.location or c == service.location])


def _lifecycle_op(rng, reg, s, patients, want) -> LifecycleOp:
    now = rng.randint(s.window[0], s.window[1]) if s.window else rng.randint(0, 120)
    consumer = _consumer_ok(rng, reg, s)
    inputs = {"patient": rng.choice(patients)} if s.inputs else {}
    reason = want if want in ("limitation", "precondition") else ""
    if want == "limitation":
        # break one limitation: the location if there is one, else the window
        if s.location:
            consumer = rng.choice([n for n, c in sorted(reg.nurses.items()) if c != s.location])
        else:
            now = s.window[1] + 1 + rng.randint(0, 40)
    effects = []
    if not reason:
        env = {"consumer": consumer, **inputs}
        if s.preconditions:
            env["ward"] = reg.patients[inputs["patient"]][0]
        for verb, subj, pred, obj in s.effects:
            ground = [env[t[1:]] if t.startswith("?") else t for t in (subj, pred, obj)]
            effects.append((verb, *ground))
    return LifecycleOp(
        service=s.name, consumer=consumer, inputs=inputs, now=now,
        rating=Decimal(rng.randint(0, 5)),
        status="rejected" if reason else "completed", reason=reason, effects=effects,
    )


def parse_lifecycle_line(line: str) -> LifecycleOp:
    service, consumer, inputs, now, rating, status, reason, effects = line.rstrip("\n").split("\t")
    return LifecycleOp(
        service=service, consumer=consumer,
        inputs=dict(kv.split("=") for kv in inputs.split(",")) if inputs != "-" else {},
        now=int(now), rating=Decimal(rating), status=status,
        reason="" if reason == "-" else reason,
        effects=[tuple(e.split(" ")) for e in effects.split(";")] if effects != "-" else [],
    )


# --------------------------------------------------------------------------
# Chat scenario for mapek-scenario

N_SPECIALISTS = 8
N_SCENARIO_PATIENTS = 6
SPECIALIST_SKILL = "Complex_Problem_Solving"
SPECIALIST_MINIMUM = 4
SPECIALIST_KNOWLEDGE = ("Medicine_and_Dentistry", "Therapy_and_Counseling")
SCENARIO_CONTEXT = "clinic"
BOT = "Bot"
INITIAL_TOPICS = ("ClinicHours", "Parking", "Visiting", "Pharmacy")
FAREWELL_RATING = {"satisfied": 5, "unhappy": 2}

_BOT_RULES = (
    f"RULE {BOT} WHEN event=request THEN invoke-requested",
    f"RULE {BOT} WHEN event=message,sentiment=satisfied THEN complete-sessions rating=5",
    f"RULE {BOT} WHEN event=message,sentiment=unhappy THEN complete-sessions rating=2",
    f"RULE {BOT} WHEN event=message,from-provider=yes,topic-known=no THEN acquire-knowledge",
    f"RULE {BOT} WHEN event=message,sentiment=upset,topic-known=no THEN discover"
    f" skill={SPECIALIST_SKILL}:{SPECIALIST_MINIMUM}"
    f" knowledge={','.join(SPECIALIST_KNOWLEDGE)} context={SCENARIO_CONTEXT}"
    " invoke=yes inputs=patient:@from",
    f"RULE {BOT} WHEN event=message,topic-known=yes THEN answer",
)


@dataclass
class ScenarioInputs:
    files: dict                 # file name -> text
    discoveries: list           # expected "found=<service> score=<score>" per discovery


def build_scenario(seed: int) -> ScenarioInputs:
    """A clinic chat modelled on the shipped scenario, at a larger scale.

    Only the bot has rules, so the generator can predict every action it
    takes: it tracks the topics the bot knows, the open sessions and the
    specialists' ratings, and ranks specialists with the reference ranker.
    """
    rng = random.Random(f"scenario-{seed}")
    files = {}
    files["bot.cap"] = (
        "HARDWARE DialogueServer\nSOFTWARE DialogueEngine\n"
        "PROGRAMMED_SKILL Conversational_Response\n"
        + "".join(f"LEARNED {t}\n" for t in INITIAL_TOPICS)
        + f"CONTEXT {SCENARIO_CONTEXT}\n"
    )
    files["bot.srv"] = (
        f"SERVICE botService\nPROVIDER {BOT}\nKIND communicating\n"
        "EFFECT ADD ?consumer consumes botService\n"
        f"CONTEXT {SCENARIO_CONTEXT}\nQOS reputation=4 cost=1 response_time=1\nPARALLELISM 100\n"
    )
    patients = [f"Pat{k:02d}" for k in range(N_SCENARIO_PATIENTS)]
    for name in patients:
        files[f"{name.lower()}.cap"] = (
            f"ABILITY Oral_Expression {rng.randint(1, 7)}\nCONTEXT {rng.choice(('clinic', 'home'))}\n"
        )
    specialists = {}
    for k in range(N_SPECIALISTS):
        name = f"Spec{k:02d}"
        level = rng.randint(2, 7)
        known = rng.choice(SPECIALIST_KNOWLEDGE + ("Psychology",))
        context = SCENARIO_CONTEXT if k % 4 else "wardA"
        if k == 1:  # at least one specialist always qualifies
            level, known = max(level, SPECIALIST_MINIMUM), SPECIALIST_KNOWLEDGE[0]
        files[f"{name.lower()}.cap"] = (
            f"SKILL {SPECIALIST_SKILL} {level}\nSKILL Active_Listening {rng.randint(1, 7)}\n"
            f"KNOWLEDGE {known}\nEDUCATION Doctoral_Degree\nCONTEXT {context}\n"
        )
        service = f"consult{k:02d}"
        reputation = _dec(rng.randint(25, 50) / 10)
        cost, rt = rng.randint(5, 60), rng.randint(2, 30)
        files[f"{service}.srv"] = (
            f"SERVICE {service}\nPROVIDER {name}\nKIND processing\nINPUT patient PhysicalThing\n"
            f"EFFECT ADD ?patient advisedBy {name}\nDECLARE advisedBy PhysicalThing PhysicalThing\n"
            f"CONTEXT {context}\nQOS reputation={reputation} cost={cost} response_time={rt}\n"
            "PARALLELISM 50\n"
        )
        specialists[service] = dict(
            provider=name, level=level, knowledge=known, context=context,
            reputation=reputation, cost=Decimal(cost), rt=Decimal(rt), ratings=[],
        )

    # conversations: request, questions on known topics, upset questions on
    # new topics (discover -> invoke, then the specialist's answer teaches
    # the bot), repeat questions, farewell
    conversations = []
    for c in range(SCENARIO_CONVERSATIONS):
        steps = ["request"] + ["known"] * 3 + ["upset", "answer", "known", "repeat"]
        if c % 2:
            steps += ["upset", "answer", "repeat"]
        steps.append("farewell")
        conversations.append(dict(patient=patients[c % len(patients)], steps=steps, pos=0,
                                  sessions=[], specialist=None, topic=None))
    known_topics = list(INITIAL_TOPICS)
    events, discoveries, executed = [], [], []  # executed: (time, action) in trace order
    active, waiting, busy = [], list(range(len(conversations))), set()
    time = topics = 0
    while waiting or active:
        # keep up to three conversations open, one per patient at a time
        for c in list(waiting):
            if len(active) < 3 and conversations[c]["patient"] not in busy:
                waiting.remove(c)
                active.append(c)
                busy.add(conversations[c]["patient"])
        c = rng.choice(active)
        conv = conversations[c]
        step = conv["steps"][conv["pos"]]
        conv["pos"] += 1
        time += 1
        patient = conv["patient"]
        if step == "request":
            events.append(f"AT {time} REQUEST {patient} botService")
            conv["sessions"].append("botService")
            executed.append((time, "invoke-requested"))
        elif step in ("known", "repeat"):
            sentiment = "upset" if step == "repeat" else "neutral"
            events.append(f"AT {time} MESSAGE {patient} {BOT} q{time} {sentiment} {rng.choice(known_topics)}")
            executed.append((time, "answer"))
        elif step == "upset":
            topics += 1
            conv["topic"] = f"Topic{topics:03d}"
            events.append(f"AT {time} MESSAGE {patient} {BOT} q{time} upset {conv['topic']}")
            service, score = _top_specialist(specialists)
            discoveries.append(f"found={service} score={score}")
            conv["sessions"].append(service)
            conv["specialist"] = specialists[service]["provider"]
            executed += [(time, "discover"), (time, "invoke")]
        elif step == "answer":
            events.append(f"AT {time} MESSAGE {conv['specialist']} {patient} a{time} calm {conv['topic']}")
            known_topics.append(conv["topic"])
            executed.append((time, "acquire-knowledge"))
        else:
            sentiment = "satisfied" if rng.random() < 0.6 else "unhappy"
            events.append(f"AT {time} MESSAGE {patient} {BOT} bye{time} {sentiment} Farewell")
            for service in conv["sessions"]:
                if service in specialists:
                    specialists[service]["ratings"].append(Decimal(FAREWELL_RATING[sentiment]))
            executed += [(time, "complete")] * len(conv["sessions"])
        if conv["pos"] == len(conv["steps"]):
            active.remove(c)
            busy.discard(patient)

    counts, first, last = {}, {}, {}
    for index, (t, action) in enumerate(executed):
        counts[action] = counts.get(action, 0) + 1
        first.setdefault(action, index)
        last[action] = t
    lines = ["# Generated clinic chat; see bench/workload_gen.py."]
    lines += [f"NODE {p} HUMAN {p.lower()}.cap" for p in patients]
    lines.append(f"NODE {BOT} MACHINE bot.cap")
    lines += [f"NODE {s['provider']} HUMAN {s['provider'].lower()}.cap" for s in specialists.values()]
    lines.append("SERVICE bot.srv")
    lines += [f"SERVICE {name}.srv" for name in specialists]
    lines += list(_BOT_RULES)
    lines += events
    lines += [f"EXPECT COUNT {action} {n}" for action, n in sorted(counts.items())]
    order = sorted(first, key=first.get)
    lines += [f"EXPECT ORDER {a} {b}" for a, b in zip(order, order[1:])]
    lines += [f"EXPECT NONE_AFTER {t} {a}" for a, t in sorted(last.items())]
    files["chat.scn"] = "\n".join(lines) + "\n"
    return ScenarioInputs(files=files, discoveries=discoveries)


def _top_specialist(specialists: dict) -> tuple:
    """The bot's discovery, ranked by the reference from the generator's records."""
    ranked = []
    for service, s in sorted(specialists.items()):
        if s["level"] < SPECIALIST_MINIMUM or s["knowledge"] not in SPECIALIST_KNOWLEDGE:
            continue
        if s["context"] != SCENARIO_CONTEXT:
            continue
        rep = reference.mean_rating(s["ratings"]) if s["ratings"] else s["reputation"]
        ranked.append((service, reference.score(rep, s["cost"], s["rt"])))
    ranked.sort(key=lambda r: (-r[1], r[0]))
    return ranked[0]


def write_inputs(seed: int, out: Path) -> None:
    """Write every generated input for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    reg = build_registry(seed)
    (out / "registry.kb").write_text(registry_kb_text(reg), encoding="utf-8")
    (out / "discover.txt").write_text(
        "".join(r.line() + "\n" for r in discover_requests(seed, reg)), encoding="utf-8")
    (out / "lifecycle.tsv").write_text(
        "".join(op.line() + "\n" for op in lifecycle_ops(seed, reg)), encoding="utf-8")
    scenario = build_scenario(seed)
    scn = out / "scenario"
    scn.mkdir(exist_ok=True)
    for name, text in scenario.files.items():
        (scn / name).write_text(text, encoding="utf-8")
    (scn / "discoveries.txt").write_text(
        "".join(d + "\n" for d in scenario.discoveries), encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
