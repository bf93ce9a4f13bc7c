"""Cold start: each entry point loads only what it runs.

The package roots export their heavy names lazily (``repro._lazy``), and
``repro.sim.rng`` imports numpy only for array draws (``derive_rng``);
its scalar stream (``derive_stream``) is pure Python.  So:

* a cfm ``run_spec`` loads no numpy, no process pool, no asyncio, no
  network models and no serving layer;
* a cache or hierarchy ``run_spec`` draws its op stream from
  ``derive_stream`` and loads no numpy;
* the CLI and the serve front-end load no numpy;
* ``from repro.sim import derive_rng`` loads numpy only when called, and
  draws from ``derive_stream`` never load it.

The module checks run in fresh interpreters, since this test process has
long since imported everything.  The lazy exports themselves are checked
in process: each name resolves, is listed by ``dir`` and is the object its
home module defines; an unknown name raises ``AttributeError``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAZY_PACKAGES = ["repro", "repro.core", "repro.sim", "repro.fastpath",
                 "repro.network"]


def _loaded_after(code: str, modules) -> dict:
    """Run ``code`` in a fresh interpreter; which of ``modules`` it loaded."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps({{m: m in sys.modules for m in {list(modules)!r}}}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cfm_run_loads_no_numpy_pool_asyncio_network_or_serve():
    heavy = ["numpy", "multiprocessing", "concurrent.futures", "asyncio",
             "repro.network", "repro.serve"]
    loaded = _loaded_after(
        "from repro.obs.bench import run_spec\n"
        "report = run_spec({'system': 'cfm', 'params': "
        "{'n_procs': 4, 'bank_cycle': 4, 'cycles': 300}})\n"
        "assert report['completed'] > 0",
        heavy)
    assert loaded == dict.fromkeys(heavy, False)


@pytest.mark.parametrize("spec", [
    {"system": "cache", "params": {"n_procs": 4, "rounds": 4,
                                   "workload": "mix"}},
    {"system": "hierarchy", "params": {"n_clusters": 2,
                                       "procs_per_cluster": 2, "rounds": 4,
                                       "workload": "global"}},
], ids=["cache", "hierarchy"])
def test_coherence_run_loads_no_numpy(spec):
    loaded = _loaded_after(
        "from repro.obs.bench import run_spec\n"
        f"report = run_spec({spec!r})\n"
        "assert report['completed'] > 0",
        ["numpy"])
    assert loaded == {"numpy": False}


def test_cli_and_serve_front_end_load_no_numpy():
    loaded = _loaded_after("import repro.cli\nimport repro.serve.service",
                           ["numpy", "repro.serve.service"])
    assert loaded == {"numpy": False, "repro.serve.service": True}


def test_numpy_loads_with_the_first_random_stream():
    assert _loaded_after("from repro.sim import derive_rng",
                         ["numpy"]) == {"numpy": False}
    assert _loaded_after("from repro.sim import derive_rng\n"
                         "derive_rng(7, 'proc', 0).integers(0, 4)",
                         ["numpy"]) == {"numpy": True}
    assert _loaded_after("from repro.sim import derive_stream\n"
                         "s = derive_stream(7, 'proc', 0)\n"
                         "s.integers(0, 4), s.random()",
                         ["numpy"]) == {"numpy": False}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed, (name, export)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("repro."):
            assert getattr(sys.modules[home], export) is value, (name, export)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no "
                                             "attribute 'no_such_name'"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


def test_star_import_reaches_lazy_names():
    namespace: dict = {}
    exec("from repro.core import *", namespace)
    assert namespace["MultiModuleCFM"].__module__ == "repro.core.multimodule"
