"""Every definition in the library has a caller, or a stated reason to stay.

A module-level function or class, or a public method, of ``src/qmhlab`` must be
named somewhere in ``src/qmhlab`` or ``perfbench`` outside its own definition,
as a name, an attribute or an import alias.  A field of a library dataclass
must be read as an attribute there.  A parameter with a default must be passed,
positionally or by keyword, by some call there; a call of a class passes its
__init__'s, and the config keys cli.RUNNERS lists count as passed to their
runner.  A parameter must be read in its function's body.  Tests do not count
as callers or readers, so code, fields and knobs only tests reach, and
parameters kept for a caller's signature, must be listed in KEPT with the
reason they stay.  The README's `src/` line count, which the roadmap tracks, matches
the sources, and no module of the library imports SciPy.
"""

import ast
import re
from pathlib import Path

from qmhlab import cli

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "qmhlab").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

KEPT = {
    "run_cmd": "click command of the qmh-lab entry point",
    "verify_cmd": "click command of the qmh-lab entry point",
    "scaling_cmd": "click command of the qmh-lab entry point",
    "build_core": "dense core G, the oracle of the core-operator identities (criterion 02)",
    "qsa_schedule(kernel)": "perfbench's gw-credible workload passes it positionally",
    "build_walk_operator(kernel)": "perfbench's sweep passes it positionally",
    "experiment_credible_interval(kernel)": "every cli.RUNNERS runner takes (model, kernel, "
                                            "out_dir, ...)",
    "round_at_bit": "scalar truncation the QMCI contracts are stated in (criterion 06)",
    "gw_identity_error": "likelihood-structure identity of the signal instance (criterion 10)",
    "pi3_overlap_bound": "closed-form pi/3 amplification bound (criterion 03)",
    "ProposalKernel.matrix": "dense proposal T, the reference the neighbour tables are checked against",
    "QpePhaseGate.error_bound": "certified distance of the QPE gate to the ideal phase gate",
    "decode_distribution": "reads the distribution off a prepared state, for the credible bound",
    "synth_gw_instance(noiseless)": "data equal to the injected signal, so L is minimised at the "
                                    "injection (test_injected_norm_matches_rho)",
}


def _definitions(path):
    """(qualified name, first line, last line) of each checked definition in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _uses(path):
    """(name, line) of each name, attribute and import alias in path."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (node.name.split(".")[-1], node.asname):
                if name:
                    yield name, node.lineno


def _fields(path):
    """Qualified name of each field the dataclasses in path declare."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}"


def unread_fields():
    reads = {node.attr for path in CALLERS for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{path.stem}.{field}" for path in LIBRARY for field in _fields(path)
            if field.split(".")[-1] not in reads]


def unreferenced():
    uses = {path: list(_uses(path)) for path in CALLERS}
    dead = []
    for path in LIBRARY:
        for qualname, first, last in _definitions(path):
            name = qualname.split(".")[-1]
            called = any(used == name and not (where == path and first <= line <= last)
                         for where, found in uses.items() for used, line in found)
            if not called:
                dead.append(f"{path.stem}.{qualname}")
    return dead


def _defaulted_parameters(body, prefix="", method=False):
    """(qualified function name, positional index or None, parameter) of each parameter
    with a default; a method's index skips self or cls, as a call through the instance does."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defaulted_parameters(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            skip = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                          for d in node.decorator_list))
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield prefix + node.name, i - skip, positional[i].arg
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield prefix + node.name, None, param.arg
            yield from _defaulted_parameters(node.body, f"{prefix}{node.name}.")


def _passes(call, index, param):
    """Whether call passes the parameter; a * or ** argument passes whatever it could."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_parameters():
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    configured = {(runner.__name__, key) for runner, keys in cli.RUNNERS.values() for key in keys}
    unpassed = []
    for path in LIBRARY:
        for qualname, index, param in _defaulted_parameters(ast.parse(path.read_text()).body):
            *outer, name = qualname.split(".")
            callee = outer[-1] if name == "__init__" else name
            if (name, param) not in configured and not any(
                    _passes(call, index, param) for call in calls.get(callee, [])):
                unpassed.append(f"{path.stem}.{qualname}({param})")
    return unpassed


def _functions(body, prefix=""):
    """(qualified name, node) of each function in body, methods and nested functions too."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def unread_parameters():
    """Each parameter, bar self and cls, that no name in its function's body reads."""
    unread = []
    for path in LIBRARY:
        for qualname, node in _functions(ast.parse(path.read_text()).body):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            names = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{path.stem}.{qualname}({a.arg})" for a in params
                       if a.arg not in names | {"self", "cls"}]
    return unread


def test_every_definition_has_a_caller_or_a_reason():
    dead = unreferenced()
    unkept = [d for d in dead if d.split(".", 1)[1] not in KEPT]
    assert not unkept, f"no caller in src/qmhlab or perfbench: {unkept}"
    stale = set(KEPT) - {d.split(".", 1)[1]
                         for d in dead + unread_fields() + unpassed_parameters()
                         + unread_parameters()}
    assert not stale, f"KEPT lists names that are gone or now used: {stale}"


def test_every_dataclass_field_is_read_or_kept():
    unkept = [f for f in unread_fields() if f.split(".", 1)[1] not in KEPT]
    assert not unkept, f"field read nowhere in src/qmhlab or perfbench: {unkept}"


def test_every_defaulted_parameter_is_passed_or_kept():
    unkept = [p for p in unpassed_parameters() if p.split(".", 1)[1] not in KEPT]
    assert not unkept, f"parameter no call in src/qmhlab or perfbench passes: {unkept}"


def test_every_parameter_is_read_or_kept():
    unkept = [p for p in unread_parameters() if p.split(".", 1)[1] not in KEPT]
    assert not unkept, f"parameter its function never reads: {unkept}"


def test_readme_states_src_line_count():
    stated = re.search(r"`src/` is ([\d,]+) lines of Python", (ROOT / "README.md").read_text())
    assert stated, "README.md states no `src/` line count"
    lines = sum(len(path.read_text().splitlines()) for path in LIBRARY)
    assert int(stated.group(1).replace(",", "")) == lines


def test_library_imports_no_scipy():
    # at module level or inside a function; the tests alone use SciPy, as a reference
    found = [f"{path.stem}:{node.lineno}" for path in LIBRARY
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"]
    assert not found, f"SciPy imported in the library at {found}"
