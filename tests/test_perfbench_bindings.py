"""The benchmark tracer wraps refleq functions by name: every name must resolve.

perfbench/tracer.py is loaded by path and left as it is.  A refactor that
drops or renames a wrapped function fails here instead of in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

from refleq import field, matrix, relations

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = []
    for mod_name, attr, _span, _group in _load_tracer().TARGETS:
        owner = importlib.import_module(f"refleq.{mod_name}")
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{mod_name}.{attr}")
    assert not missing


def test_names_imported_into_relations_are_the_wrapped_ones():
    # the tracer rebinds these in relations because they are the same objects
    assert relations.poly_gcd is field.poly_gcd
    assert relations.embed_on_slots is matrix.embed_on_slots
    assert relations.verify_identity is matrix.verify_identity
