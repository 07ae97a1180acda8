"""Docstring enforcement for the public API surface.

The classes a new contributor meets first (the census runner, the
training-set builder, the classifier, the trace gatherer, the parallel
executor, the TCP sender, the random forest and its decision tree, and the
experiment-registry API) must stay fully documented: every public method
and property needs a one-line summary, and methods that take arguments or
return values need Google-style ``Args:`` / ``Returns:`` sections. The same
rules apply to the module-level entry points of the ``analysis`` and
``experiments`` packages. This test fails with the exact list of offenders,
so the docs debt cannot silently regrow. Each config dataclass that
``docs/CONFIGURATION.md`` tabulates must be listed there field for field.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.analysis import figures, tables
from repro.analysis.cdf import EmpiricalCdf
from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.gather import GatherConfig, TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.experiments import registry, render
from repro.experiments.resources import ResourcePool
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ArtifactStore
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.parallel import ParallelExecutor
from repro.tcp.connection import TcpSender
from repro.web.population import PopulationConfig

PUBLIC_CLASSES = [CensusRunner, TrainingSetBuilder, CaaiClassifier,
                  TraceGatherer, ParallelExecutor, TcpSender,
                  RandomForestClassifier, DecisionTreeClassifier,
                  EmpiricalCdf,
                  ExperimentRunner, ArtifactStore, ResourcePool]

#: Module-level entry points held to the same Args/Returns standard.
PUBLIC_FUNCTIONS = [
    figures.ascii_series,
    tables.format_markdown_table,
    tables.format_table,
    registry.all_experiments,
    registry.code_fingerprint,
    registry.experiment_fingerprint,
    registry.experiment_names,
    registry.get_experiment,
    registry.register,
    render.render_markdown,
    render.render_to_file,
]


#: The configuration reference, one table of fields per config dataclass.
CONFIGURATION = Path(__file__).resolve().parents[1] / "docs" / "CONFIGURATION.md"

#: The dataclasses ``docs/CONFIGURATION.md`` tabulates, under a heading
#: naming each one in backticks.
CONFIG_CLASSES = [CensusConfig, GatherConfig, PopulationConfig,
                  TrainingSetBuilder, CaaiClassifier, ParallelExecutor]


def _public_members(cls):
    """(name, callable, is_property) for everything defined on the class."""
    members = []
    for name, raw in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(raw, property):
            members.append((name, raw.fget, True))
        elif isinstance(raw, (staticmethod, classmethod)):
            members.append((name, raw.__func__, False))
        elif inspect.isfunction(raw):
            members.append((name, raw, False))
    return members


def _parameters_beyond_self(function) -> list[str]:
    names = []
    for parameter in inspect.signature(function).parameters.values():
        if parameter.name in ("self", "cls"):
            continue
        if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                              inspect.Parameter.VAR_KEYWORD):
            continue
        names.append(parameter.name)
    return names


def _returns_value(function) -> bool:
    annotation = inspect.signature(function).return_annotation
    return annotation not in (inspect.Signature.empty, None, "None")


def _docstring_problems(cls) -> list[str]:
    problems = []
    if not (cls.__doc__ or "").strip():
        problems.append(f"{cls.__name__}: class docstring missing")
    for name, function, is_property in _public_members(cls):
        where = f"{cls.__name__}.{name}"
        doc = inspect.getdoc(function) or ""
        if not doc.strip():
            problems.append(f"{where}: docstring missing")
            continue
        summary = doc.strip().splitlines()[0].strip()
        if not summary.endswith((".", "!", "?")):
            problems.append(f"{where}: first line must be a one-sentence "
                            f"summary ending with a period, got {summary!r}")
        if is_property:
            continue  # properties read as attributes; a summary suffices
        if _parameters_beyond_self(function) and "Args:" not in doc:
            problems.append(f"{where}: takes arguments but has no 'Args:' "
                            "section")
        if _returns_value(function) and "Returns:" not in doc:
            problems.append(f"{where}: returns a value but has no "
                            "'Returns:' section")
    return problems


def _function_problems(function) -> list[str]:
    where = f"{function.__module__}.{function.__name__}"
    doc = inspect.getdoc(function) or ""
    problems = []
    if not doc.strip():
        return [f"{where}: docstring missing"]
    summary = doc.strip().splitlines()[0].strip()
    if not summary.endswith((".", "!", "?")):
        problems.append(f"{where}: first line must be a one-sentence "
                        f"summary ending with a period, got {summary!r}")
    if _parameters_beyond_self(function) and "Args:" not in doc:
        problems.append(f"{where}: takes arguments but has no 'Args:' section")
    if _returns_value(function) and "Returns:" not in doc:
        problems.append(f"{where}: returns a value but has no 'Returns:' section")
    return problems


@pytest.mark.parametrize("cls", PUBLIC_CLASSES,
                         ids=lambda cls: cls.__name__)
def test_public_api_is_documented(cls):
    problems = _docstring_problems(cls)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("function", PUBLIC_FUNCTIONS,
                         ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_public_functions_are_documented(function):
    problems = _function_problems(function)
    assert not problems, "\n".join(problems)


def _documented_fields(class_name: str) -> list[str]:
    """The field names of the table under the ``## ...`` heading naming
    ``class_name`` (each row's first cell, in backticks)."""
    lines = CONFIGURATION.read_text(encoding="utf-8").splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.startswith("## ") and f"`{class_name}`" in line)
    names = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        row = re.match(r"\|\s*`(\w+)`\s*\|", line)
        if row:
            names.append(row.group(1))
    return names


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_configuration_table_lists_every_public_field(cls):
    public = [field.name for field in dataclasses.fields(cls)
              if not field.name.startswith("_")]
    assert _documented_fields(cls.__name__) == public
