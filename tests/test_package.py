import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import crlab
from crlab import crossratio, projlin, surfgrp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
SPANS = PERFBENCH / "spans.py"


def workload_aliases():
    """The benchmark workloads' syntax tree and its crlab module aliases."""
    tree = ast.parse(WORKLOADS.read_text())
    aliases = {a.asname: importlib.import_module(a.name)
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name.startswith("crlab.") and a.asname}
    return tree, aliases


def public_callables():
    """(module short name, name, object) of each public function and class
    defined in a crlab module, not imported into it."""
    for mod in (projlin, surfgrp, crossratio):
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield short, name, obj


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from crlab import *", namespace)
    assert set(crlab.__all__) <= set(namespace)


def test_settable_options_pinned():
    # every parameter with a default on a public function or class is an
    # option some caller can set; a new one shows up here as a test edit
    options = {}
    for short, name, obj in public_callables():
        # an exception class takes *args only and has no signature
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.default is not param.empty:
                options[f"{short}.{name}.{param.name}"] = repr(param.default)
    assert options == {
        "surfgrp.fixed_points_2x2.word": "None",
        "crossratio.draw_indices.min_gap": "0.001",
        "crossratio.draw_points.min_gap": "0.001",
        "crossratio.check_axioms.seed": "0",
        "crossratio.check_invariance.seed": "0",
        "crossratio.check_invariance.min_gap": "0.001",
        "crossratio.period.y2": "None",
        "crossratio.check_relation12.seed": "0",
        "crossratio.check_relation13.seed": "0",
        "crossratio.embed_from_cr.seed": "0",
    }


def test_public_names_pinned():
    # a removed public function or class, or a new one, shows up here as a
    # test edit
    names = {}
    for short, name, _ in public_callables():
        names.setdefault(short, set()).add(name)
    assert names == {
        "projlin": {
            "SpectrumError", "dominant_lines", "normalize_rep",
            "normalize_rows", "sym_power_rep", "veronese", "veronese_dual",
        },
        "surfgrp": {
            "BoundaryPoint", "GeneratorSet", "GroupDataError", "SampleSet",
            "Word", "act_on_angle", "angle_of_line", "circular_gap",
            "conjugate_split", "enumerate_words", "evaluate",
            "fixed_points_2x2", "free_reduce", "line_of_angle",
            "make_generator_set", "octagon_fuchsian", "sample_boundary",
            "translate_point",
        },
        "crossratio": {
            "CurvePair", "DomainError", "check_axioms",
            "check_invariance", "check_rank", "check_relation12",
            "check_relation13", "classical_cr", "curve_cr", "curve_cr_fn",
            "draw_indices", "draw_points", "dual_cr", "embed_from_cr",
            "flow_from_cr", "period", "representation_pair", "veronese_pair",
        },
    }


def test_benchmark_uses_only_existing_names():
    # the benchmark reaches crlab through module aliases (`cr.period`); a
    # name it uses that the package no longer has would break its import
    # or its ops
    tree, aliases = workload_aliases()
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert set(aliases) == {"cr", "pl", "sg"}
    missing = [f"{mod}.{name}" for mod, name in sorted(used)
               if not hasattr(aliases[mod], name)]
    assert used and not missing, missing


def test_benchmark_calls_bind_to_signatures():
    # a benchmark call the package's signatures no longer accept (a removed
    # or renamed parameter) would otherwise fail only in a benchmark run
    tree, aliases = workload_aliases()
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in aliases]
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        target = getattr(aliases[call.func.value.id], call.func.attr)
        try:
            inspect.signature(target).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {ast.unparse(call)}: {exc}")
    assert calls and not unbound, unbound


def test_benchmark_reads_only_report_keys(sample_l2):
    # a report key the benchmark reads (`rep["max_violation"]`) that its
    # check no longer returns would otherwise fail only in a benchmark run
    tree, aliases = workload_aliases()
    reads = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {node.targets[0].id: node.value.func.attr
                 for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and isinstance(node.targets[0], ast.Name)
                 and isinstance(node.value, ast.Call)
                 and isinstance(node.value.func, ast.Attribute)
                 and isinstance(node.value.func.value, ast.Name)
                 and node.value.func.value.id == "cr"
                 and node.value.func.attr.startswith("check_")}
        reads |= {(bound[node.value.id], node.slice.value)
                  for node in ast.walk(fn) if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in bound
                  and isinstance(node.slice, ast.Constant)
                  and isinstance(node.slice.value, str)}
    assert reads
    b = aliases["cr"].veronese_pair(2)
    missing = [f"{check}: {key}" for check, key in sorted(reads)
               if key not in getattr(aliases["cr"], check)(b, sample_l2, 5)]
    assert not missing, missing


def test_tracer_targets_exist():
    # the tracer records a target it cannot find as absent rather than
    # failing, so a rename would silently drop that layer from the trace
    tree = ast.parse(SPANS.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing = []
    for target in targets:
        mod_name, *path = target.split(".")
        obj = importlib.import_module(f"crlab.{mod_name}")
        for part in path:
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(target)
    assert targets and not missing, missing


def test_error_messages_print_plain_numbers():
    # under numpy 2 a numpy scalar's repr reads np.float64(2.0): a message
    # names the number itself
    g = surfgrp.octagon_fuchsian()
    pts = [surfgrp.BoundaryPoint.from_angle(a) for a in (0.0, 2.0, 4.0)]
    cases = [
        (lambda: surfgrp.fixed_points_2x2(np.array([[0.25, -1.0], [1.0, 0.25]])),
         "trace 0.5"),
        (lambda: surfgrp.make_generator_set((np.diag([2.0, 1.0]),) + g.matrices[1:]),
         "det 2.0"),
        (lambda: projlin.sym_power_rep(3, np.diag([2.0, 1.0])), "det = 2.0"),
        (lambda: surfgrp.BoundaryPoint.from_angle(np.float64(np.nan)), "got nan"),
        (lambda: crossratio.flow_from_cr(crossratio.veronese_pair(2), *pts,
                                         np.float64(np.inf)), "got inf"),
    ]
    for raises, number in cases:
        with pytest.raises(ValueError) as err:
            raises()
        msg = str(err.value)
        assert number in msg and "np." not in msg, msg


def test_reports_print_plain_numbers(octagon, sample_l2):
    # a witness's angles, taken from sample points (sample_boundary), from
    # points solved one word at a time (fixed_points_2x2) and from moved
    # ones (translate_point), are floats: no report reads np.float64(...)
    b = crossratio.veronese_pair(3)
    p = surfgrp.translate_point(octagon, surfgrp.Word.of(1), sample_l2.points[0])
    points = [*sample_l2.points[:3], *octagon.fixed_points(surfgrp.Word.of(2)), p]
    assert all(type(q.circle_coord) is float for q in points)
    w, e, u = points[1:4]
    reports = [crossratio.check_axioms(b, sample_l2, 20, seed=1),
               crossratio.check_invariance(b, sample_l2, 20, seed=1),
               crossratio.check_relation12(b, sample_l2, 20, seed=1),
               crossratio.check_relation13(b, sample_l2, 20, seed=1),
               crossratio.embed_from_cr(b, w, e, u, sample_l2, 20, seed=1)[1],
               crossratio.check_rank(b, sample_l2, 2)]
    assert any(r["argmax"][k] for r in reports for k in r["argmax"])
    for report in reports:
        assert "np." not in repr(report), report
