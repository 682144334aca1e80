"""Automation-level arithmetic, allocation guidance, and the task file format."""

from decimal import Decimal

import pytest

import allocation_oracle
from soa_hitlcps.allocation import (
    Assignee,
    Category,
    CategoryWeights,
    Recommendation,
    TaskSpec,
    loa,
    loa_weighted,
    parse_task_file,
    recommend_allocation,
)
from soa_hitlcps.errors import EmptyTaskListError, InvalidStateError, ParseError


def task(tid, category, weight, assignee):
    return TaskSpec(tid, Category(category), Decimal(weight), Assignee(assignee))


# -- worked examples --------------------------------------------------------------


def test_worked_example_three_quarters():
    tasks = [task("t1", "skill", "1", "human"), task("t2", "skill", "3", "machine")]
    assert loa(tasks) == Decimal("0.7500")


def test_worked_example_weighted_one_fifth():
    tasks = [task("t1", "skill", "1", "machine"), task("t2", "expertise", "1", "human")]
    assert loa_weighted(tasks) == Decimal("0.2000")


def test_extremes():
    machines = [task(f"t{i}", "rule", "2", "machine") for i in range(3)]
    humans = [task(f"t{i}", "rule", "2", "human") for i in range(3)]
    assert loa(machines) == Decimal("1.0000")
    assert loa(humans) == Decimal("0.0000")


def test_rounding_is_half_up():
    # human share 1/1.6 = 0.625 -> automation 0.375: exact, no tie; craft a tie:
    # weights 1 human of total 8000/3999... simpler: 0.00005 tie via share 0.99995
    tasks = [task("h", "skill", "5", "human"), task("m", "skill", "99995", "machine")]
    # share = 5/100000 = 0.00005 -> loa = 0.99995 -> rounds up to 1.0000
    assert loa(tasks) == Decimal("1.0000")


def test_empty_and_zero_weight_rejected():
    with pytest.raises(EmptyTaskListError):
        loa([])
    with pytest.raises(EmptyTaskListError):
        loa_weighted([])
    with pytest.raises(EmptyTaskListError):
        loa([task("t", "skill", "0", "human")])


# -- category weights ---------------------------------------------------------------


def test_category_weights_must_not_decrease():
    with pytest.raises(InvalidStateError):
        CategoryWeights(skill=Decimal("3"), rule=Decimal("2"))
    with pytest.raises(InvalidStateError):
        CategoryWeights(knowledge=Decimal("5"), expertise=Decimal("4"))
    with pytest.raises(InvalidStateError):
        CategoryWeights(skill=Decimal("0"))
    CategoryWeights(skill=Decimal("2"), rule=Decimal("2"),
                    knowledge=Decimal("2"), expertise=Decimal("2"))


def test_custom_weights_change_result():
    tasks = [task("t1", "skill", "1", "machine"), task("t2", "expertise", "1", "human")]
    flat = CategoryWeights(skill=Decimal("1"), rule=Decimal("1"),
                           knowledge=Decimal("1"), expertise=Decimal("1"))
    assert loa_weighted(tasks, flat) == Decimal("0.5000")


# -- recommendations ------------------------------------------------------------------


def test_recommendations_by_category():
    assert recommend_allocation(Category.SKILL) == Recommendation.MACHINE
    assert recommend_allocation(Category.SKILL, reliable_feedback=False) == Recommendation.HUMAN
    assert recommend_allocation(Category.RULE) == Recommendation.MACHINE
    assert recommend_allocation(Category.RULE, mature_rules=False) == Recommendation.HUMAN
    assert recommend_allocation(Category.KNOWLEDGE) == Recommendation.MACHINE_ASSISTS_HUMAN
    assert recommend_allocation(Category.EXPERTISE) == Recommendation.HUMAN_LEADS


# -- task files ------------------------------------------------------------------------

TASK_FILE = """\
# handover tasks
TASK vitals skill WEIGHT 1 ASSIGNEE machine
TASK triage rule WEIGHT 2 ASSIGNEE machine
TASK diagnosis knowledge WEIGHT 3 ASSIGNEE human
TASK consent expertise WEIGHT 4 ASSIGNEE human
"""


def test_parse_task_file():
    tasks = parse_task_file(TASK_FILE)
    assert [t.id for t in tasks] == ["vitals", "triage", "diagnosis", "consent"]
    assert tasks[0] == task("vitals", "skill", "1", "machine")
    assert loa(tasks) == Decimal("0.3000")
    assert loa_weighted(tasks) == Decimal("0.3000")


def test_parse_task_file_errors():
    with pytest.raises(ParseError):
        parse_task_file("TASK broken skill WEIGHT 1\n")
    with pytest.raises(ParseError):
        parse_task_file("TASK a juggling WEIGHT 1 ASSIGNEE human\n")
    with pytest.raises(ParseError):
        parse_task_file("TASK a skill WEIGHT lots ASSIGNEE human\n")
    with pytest.raises(ParseError):
        parse_task_file("TASK a skill WEIGHT -1 ASSIGNEE human\n")
    with pytest.raises(ParseError):
        parse_task_file("TASK a skill WEIGHT 1 ASSIGNEE robot\n")
    with pytest.raises(ParseError) as err:
        parse_task_file("TASK a skill WEIGHT 1 ASSIGNEE human\nTASK a rule WEIGHT 1 ASSIGNEE human\n")
    assert err.value.line == 2


@pytest.mark.parametrize("weight", ["1_0", "1e1", "\u0663", "+1", ".5", "5."])
def test_task_weight_is_read_as_a_kb_number(weight):
    """A weight takes the .kb number forms only, as the numbers of every other text format do."""
    def tasks(second):
        return f"TASK t0 rule WEIGHT 2.50 ASSIGNEE machine\nTASK t1 skill WEIGHT {second} ASSIGNEE human\n"

    with pytest.raises(ParseError) as err:
        parse_task_file(tasks(weight))
    assert (err.value.line, err.value.column, err.value.expected) == (2, 1, "a decimal")
    assert [t.weight for t in parse_task_file(tasks("7"))] == [Decimal("2.50"), Decimal("7")]


# -- randomized properties ----------------------------------------------------------------


def test_randomized_against_oracle():
    assert allocation_oracle.run_randomized_cases(600, seed=77) == 600
