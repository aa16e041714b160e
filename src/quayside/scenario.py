"""Scenario-file parsing (JSON) for priority and single-class analyses."""

from dataclasses import dataclass

from .distributions import parse_distribution
from .errors import ScenarioError, positive_finite, real
from .traffic import DISCIPLINES, FIFO, LIFO, PriorityClass, PriorityScenario

__all__ = ["Mg1Scenario", "parse_scenario", "load_scenario"]


@dataclass(frozen=True)
class Mg1Scenario:
    arrival_rate: float
    service: object
    order: str

    def __post_init__(self):
        positive_finite(self.arrival_rate, "arrival_rate")
        if self.order not in (FIFO, LIFO):
            raise ValueError("order must be fifo or lifo, got %r" % (self.order,))


def parse_scenario(text):
    """Parse scenario JSON; raises ScenarioError naming the bad field.

    Priority form:     {"discipline": ..., "classes": [{"lambda", "service"}, ...]}
    Single-class form: {"arrival_rate": ..., "service": ..., "order": "fifo"|"lifo"}
    """
    import json  # only scenario files need it: a cold wait or cdf skips its import

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario is not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")

    if "discipline" in doc:
        fields, parse = {"discipline", "classes"}, _parse_priority
    elif "arrival_rate" in doc:
        fields, parse = {"arrival_rate", "service", "order"}, _parse_single
    else:
        raise ScenarioError("scenario needs either 'discipline' (priority) or 'arrival_rate' (single-class)")
    extra = set(doc) - fields
    if extra:
        raise ScenarioError("unknown scenario keys: %s" % ", ".join(sorted(extra)))
    return parse(doc)


def _parse_priority(doc):
    discipline = doc.get("discipline")
    if discipline not in DISCIPLINES:
        raise ScenarioError("discipline must be one of %s, got %r" % ("/".join(DISCIPLINES), discipline))
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        raise ScenarioError("scenario needs at least one class")
    parsed = []
    for i, cls in enumerate(classes, start=1):
        if not isinstance(cls, dict):
            raise ScenarioError("class %d: must be an object" % i)
        extra = set(cls) - {"lambda", "service"}
        if extra:
            raise ScenarioError("class %d: unknown keys: %s" % (i, ", ".join(sorted(extra))))
        try:
            # real() names the JSON field; PriorityClass checks the range
            parsed.append(PriorityClass(real(cls["lambda"], "lambda"), parse_distribution(cls["service"])))
        except KeyError as exc:
            raise ScenarioError("class %d: missing field %s" % (i, exc))
        except ValueError as exc:
            raise ScenarioError("class %d: %s" % (i, exc))
    return PriorityScenario(tuple(parsed), discipline)


def _parse_single(doc):
    try:
        return Mg1Scenario(doc["arrival_rate"], parse_distribution(doc["service"]), doc["order"])
    except KeyError as exc:
        raise ScenarioError("missing field %s" % exc)
    except ValueError as exc:
        raise ScenarioError(str(exc))


def load_scenario(path):
    with open(path) as fh:
        return parse_scenario(fh.read())
