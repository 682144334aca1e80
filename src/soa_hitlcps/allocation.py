"""Level-of-automation scoring and task allocation guidance.

A task list assigns each weighted task to a human or a machine.  The
automation level is ``1 - (human-weight share)``: 1.0 when machines do
everything, 0.0 when humans do.  The weighted variant replaces per-task
weights with weights drawn from the task's cognitive category (skill-,
rule-, knowledge-, expertise-based), which must be non-decreasing in that
order.  Arithmetic is exact (fractions) until the final 4-decimal rounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction
from typing import Optional

from .errors import EmptyTaskListError, InvalidStateError, ParseError
from .kb import content_lines, parse_decimal


class Category(enum.Enum):
    SKILL = "skill"
    RULE = "rule"
    KNOWLEDGE = "knowledge"
    EXPERTISE = "expertise"


class Assignee(enum.Enum):
    HUMAN = "human"
    MACHINE = "machine"


class Recommendation(enum.Enum):
    MACHINE = "machine"
    HUMAN = "human"
    MACHINE_ASSISTS_HUMAN = "machine-assists-human"
    HUMAN_LEADS = "human-leads"


@dataclass(frozen=True)
class TaskSpec:
    id: str
    category: Category
    weight: Decimal
    assignee: Assignee


@dataclass(frozen=True)
class CategoryWeights:
    skill: Decimal = Decimal("1")
    rule: Decimal = Decimal("2")
    knowledge: Decimal = Decimal("3")
    expertise: Decimal = Decimal("4")

    def __post_init__(self):
        ordered = (self.skill, self.rule, self.knowledge, self.expertise)
        if not all(w.is_finite() for w in ordered):  # NaN cannot be compared
            raise InvalidStateError("category weights must be finite")
        if any(w <= 0 for w in ordered):
            raise InvalidStateError("category weights must be positive")
        if not (self.skill <= self.rule <= self.knowledge <= self.expertise):
            raise InvalidStateError(
                "category weights must not decrease from skill to expertise"
            )

    def weight_for(self, category: Category) -> Decimal:
        return getattr(self, category.value)


def _human_share(pairs) -> Fraction:
    total = Fraction(0)
    human = Fraction(0)
    for weight, assignee in pairs:
        w = Fraction(weight)
        total += w
        if assignee == Assignee.HUMAN:
            human += w
    if total == 0:
        raise EmptyTaskListError("total task weight is zero")
    return human / total


def _to_decimal(value: Fraction) -> Decimal:
    quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return quotient.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)


def loa(tasks) -> Decimal:
    """Automation level from per-task weights."""
    tasks = list(tasks)
    if not tasks:
        raise EmptyTaskListError("no tasks given")
    share = _human_share((t.weight, t.assignee) for t in tasks)
    return _to_decimal(1 - share)


def loa_weighted(tasks, weights: Optional[CategoryWeights] = None) -> Decimal:
    """Automation level with category weights substituted for task weights."""
    tasks = list(tasks)
    if not tasks:
        raise EmptyTaskListError("no tasks given")
    weights = weights or CategoryWeights()
    share = _human_share((weights.weight_for(t.category), t.assignee) for t in tasks)
    return _to_decimal(1 - share)


def recommend_allocation(category: Category,
                         reliable_feedback: Optional[bool] = None,
                         mature_rules: Optional[bool] = None) -> Recommendation:
    """Default allocation stance per cognitive category.

    Skill- and rule-based work defaults to the machine and falls back to the
    human when the closed-loop feedback (or the rule set) is flagged as not
    dependable.  Knowledge-based work keeps the human deciding with machine
    support; expertise-based work stays human-led.
    """
    if category == Category.SKILL:
        return Recommendation.HUMAN if reliable_feedback is False else Recommendation.MACHINE
    if category == Category.RULE:
        return Recommendation.HUMAN if mature_rules is False else Recommendation.MACHINE
    if category == Category.KNOWLEDGE:
        return Recommendation.MACHINE_ASSISTS_HUMAN
    return Recommendation.HUMAN_LEADS


def parse_task_file(text: str):
    """Parse ``TASK <id> <category> WEIGHT <d> ASSIGNEE human|machine`` lines.

    ``<d>`` is a non-negative .kb integer or decimal (see ``kb.parse_decimal``).
    """
    tasks = []
    seen = set()
    for lineno, words in content_lines(text):
        if len(words) != 7 or words[0] != "TASK" or words[3] != "WEIGHT" or words[5] != "ASSIGNEE":
            raise ParseError(lineno, 1, "TASK <id> <category> WEIGHT <d> ASSIGNEE <who>")
        task_id, category_text, weight_text, assignee_text = words[1], words[2], words[4], words[6]
        if task_id in seen:
            raise ParseError(lineno, 1, "a unique task id")
        seen.add(task_id)
        try:
            category = Category(category_text)
        except ValueError:
            raise ParseError(lineno, 1, "skill/rule/knowledge/expertise")
        weight = parse_decimal(weight_text, lineno, 1)
        if weight < 0:
            raise ParseError(lineno, 1, "a non-negative weight")
        try:
            assignee = Assignee(assignee_text)
        except ValueError:
            raise ParseError(lineno, 1, "human or machine")
        tasks.append(TaskSpec(task_id, category, weight, assignee))
    return tasks
