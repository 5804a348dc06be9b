"""README.md against the package: the constants it quotes and the
records it names.

Each "`NAME` = value" in the README (a line break may fall inside it)
must name a module constant of graphconc and equal it; a value may
carry a binary unit (``1 MiB``).  Each ``BENCH_*.json`` the README names
must exist at the repository root and parse as JSON.
"""

import importlib
import json
import os
import pkgutil
import re

import graphconc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_UNITS = {"": 1, "KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}
_QUOTE = re.compile(r"`([A-Z][A-Z0-9_]+)`\s+=\s+"
                    r"([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
                    r"(?:\s+(KiB|MiB|GiB)\b)?")


def _readme():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


def _constants():
    """{NAME: [its value in each graphconc module that holds it]}."""
    found = {}
    for info in pkgutil.iter_modules(graphconc.__path__):
        module = importlib.import_module(f"graphconc.{info.name}")
        for name, value in vars(module).items():
            if (name.isupper() and isinstance(value, (int, float))
                    and not isinstance(value, bool)):
                found.setdefault(name, []).append(value)
    return found


def mismatches(text, constants):
    """One line per quote in ``text`` that names no constant or another
    value than the code's."""
    out = []
    for name, number, unit in _QUOTE.findall(text):
        quoted = f"`{name}` = {number}{' ' + unit if unit else ''}"
        if name not in constants:
            out.append(f"{quoted} names no module constant of graphconc")
        elif any(v != float(number) * _UNITS[unit] for v in constants[name]):
            out.append(f"{quoted}, but the code holds {constants[name][0]}")
    return out


def test_readme_quotes_each_constant_as_the_code_holds_it():
    text = _readme()
    names = {name for name, *_ in _QUOTE.findall(text)}
    assert {"NORM_TOL", "LANCZOS_STEPS", "DENSE_SOLVE_LIMIT",
            "CSV_CHUNK"} <= names
    assert not mismatches(text, _constants())


def test_a_quote_that_differs_from_the_code_fails():
    constants = _constants()
    assert not mismatches("`LANCZOS_STEPS`\n= 12 and `CSV_CHUNK` = 1 MiB",
                          constants)
    for text in ("`LANCZOS_STEPS` = 13", "`LANCZOS_STEPS`\n= 13",
                 "`CSV_CHUNK` = 2 MiB", "`NORM_TOL` = 1e-6",
                 "`NO_SUCH_CONSTANT` = 1"):
        assert len(mismatches(text, constants)) == 1, text


def test_each_bench_record_the_readme_names_exists_and_parses():
    names = set(re.findall(r"BENCH_\w+\.json", _readme()))
    assert names
    for name in sorted(names):
        with open(os.path.join(ROOT, name)) as fh:
            json.load(fh)
