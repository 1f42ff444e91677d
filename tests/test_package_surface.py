"""The package holds only code that a program path runs.

Every public module-level function and class of ``src/cavitydft`` and
every public method or property must be referenced somewhere in ``src/``
or ``bench/`` outside its own definition.  A module-level name counts as
referenced where it is imported, used bare, taken as an attribute of a
module, or named in a string (the benchmark's tracer wraps names given as
strings); a method or property counts where some attribute access or
string uses its name.  Code that only tests call belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavitydft"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# names allowed without a caller in src/ or bench/, each with its reason
ALLOWED = {
    "oracle.exact_propagate": "the oracle's exact propagation, the reference of the dynamics tests",
    "oracle.normal_mode_frequencies": "the oracle's closed-form polariton model, criterion 4",
    "spectra.charge_transfer_profile": "the observable acceptance criterion 11 is defined on",
    "spectra.peak_area": "the observable acceptance criterion 6 is defined on",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions():
    """(qualified name, bare name, is_method, file, first line, last line) of each public def."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            yield f"{module}.{node.name}", node.name, False, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield (f"{module}.{node.name}.{item.name}", item.name, True, path,
                               item.lineno, item.end_lineno)


def _references():
    """Per source file, (name, line, kind) for every use of an identifier.

    ``kind`` is "global" for imports, bare names and attributes of a module,
    "attribute" for any other attribute access, and "string" for a string
    constant that is exactly an identifier.
    """
    refs = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        modules = {"cavitydft"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "cavitydft"):
                modules.update(a.asname or a.name for a in node.names)
        found = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.append((node.id, node.lineno, "global"))
            elif isinstance(node, ast.alias):
                found.append((node.name.split(".")[-1], node.lineno, "global"))
            elif isinstance(node, ast.Attribute):
                base = node.value
                on_module = isinstance(base, ast.Name) and base.id in modules
                found.append((node.attr, node.lineno, "global" if on_module else "attribute"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                found.append((node.value, node.lineno, "string"))
        refs[path] = found
    return refs


def test_every_public_name_has_a_caller():
    refs = _references()
    unused = []
    for qualified, name, is_method, path, first, last in _definitions():
        if qualified in ALLOWED:
            continue
        kinds = {"attribute", "string"} if is_method else {"global", "string"}
        used = any(ref == name and kind in kinds
                   and not (src == path and first <= line <= last)
                   for src, found in refs.items() for ref, line, kind in found)
        if not used:
            unused.append(qualified)
    assert not unused, f"no caller in src/ or bench/: {unused}"


def test_allowlist_names_existing_definitions():
    defined = {qualified for qualified, *_ in _definitions()}
    assert set(ALLOWED) <= defined
