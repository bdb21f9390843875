"""The benchmark tracer wraps refleq functions by name: every name must resolve.

perfbench/tracer.py is loaded by path and left as it is.  A refactor that
drops or renames a wrapped function fails here instead of in the benchmark.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
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


# what a traced benchmark pass does first: `import refleq.cli`, then
# install(), which looks every target's module up in sys.modules.  A module
# that refleq.cli imports only lazily is missing there, and the pass crashes
_INSTALL_AFTER_CLI = """
import importlib.util
import sys

import refleq.cli

spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer().install()
assert not t.unwrapped_bindings()
t.uninstall()
print("installed and uninstalled")
"""


def test_the_tracer_installs_after_importing_only_the_cli():
    src = Path(relations.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _INSTALL_AFTER_CLI, str(TRACER)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout.strip()) == (0, "installed and uninstalled"), out.stderr
