"""Every layer the benchmark traces still names a function of the package,
and every suite member it wraps still names a method of each service.

The tracer reports a layer it cannot find as absent and runs on, so a
rename or deletion would otherwise lose the layer without failing anything.
"""

import importlib
import importlib.util
import os

from hopqg.cli import _SERVICES
from hopqg.dataset_builder import BackendSuite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The tracer marks this private CLI helper as harmless to lose.
MAY_BE_ABSENT = {("hopqg.cli", "_write_text")}


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_resolves():
    layers = load_tracing().LAYERS
    assert layers
    for layer, mod_name, path in layers:
        if (mod_name, path) in MAY_BE_ABSENT:
            continue
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # A method must be defined on the named class itself, as the tracer
        # rebinds it there.
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found) or isinstance(found, staticmethod), f"{layer}: {mod_name}.{path} is gone"


def test_every_traced_suite_member_resolves():
    """Each BackendSuite member the tracer wraps is a field of the suite,
    and each service class the CLI may put there, rule or remote, defines
    the traced method."""
    members = load_tracing().SUITE_MEMBERS
    assert members
    suite_fields = set(BackendSuite._fields)
    for layer, member, method in members:
        assert member in suite_fields, f"{layer}: BackendSuite has no {member!r}"
        module, rule, remote, _ = _SERVICES[member]
        for mod_name, name in ((module, rule), ("remote", remote)):
            cls = getattr(importlib.import_module(f"hopqg.{mod_name}"), name)
            assert callable(getattr(cls, method, None)), f"{layer}: hopqg.{mod_name}.{name}.{method} is gone"
