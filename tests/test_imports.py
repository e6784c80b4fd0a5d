"""Package exports are lazy: importing a package loads only what it uses.

Each case runs in a fresh interpreter, because the modules a test
process already imported would hide what one import pulls in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
PACKAGES = sorted(
    "repro" + dirpath[len(PACKAGE_DIR):].replace(os.sep, ".")
    for dirpath, _, files in os.walk(PACKAGE_DIR)
    if "__init__.py" in files)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _loaded_after(statements: str) -> list[str]:
    return _fresh("import json, sys\n" + statements + "\n"
                  "print(json.dumps(sorted(m for m in sys.modules\n"
                  "                        if m.startswith('repro'))))\n")


def _resolve_all(package: str) -> str:
    return (f"import {package} as pkg\n"
            "for name in pkg.__all__:\n"
            "    getattr(pkg, name)\n")


def _under(loaded: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_fleet_loads_no_tee_inference_audio_or_training_stack():
    loaded = _loaded_after(_resolve_all("repro.fleet"))
    assert "repro.fleet.director" in loaded
    assert _under(loaded, ("repro.core", "repro.tflm", "repro.audio",
                           "repro.train", "repro.eval",
                           "repro.sanctuary.lifecycle")) == []


def test_serve_loads_no_training_baselines_harnesses_or_speaker():
    loaded = _loaded_after(_resolve_all("repro.serve"))
    assert "repro.serve.service" in loaded
    assert _under(loaded, ("repro.train", "repro.baselines",
                           "repro.eval.figures", "repro.eval.table1")) == []
    assert [m for m in loaded if m.startswith("repro.core.speaker")] == []


def test_pretrained_loads_no_trainer():
    loaded = _loaded_after("import repro.eval.pretrained")
    assert "repro.eval.pretrained" in loaded
    assert _under(loaded, ("repro.train.trainer",)) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    """Each ``__all__`` name resolves and is in ``dir()``; a name that
    is also a submodule is bound on import, not looked up lazily."""
    report = _fresh(
        "import json, pkgutil\n"
        f"import {package} as pkg\n"
        "eager = set(vars(pkg))\n"
        "exported = getattr(pkg, '__all__', [])\n"
        "missing = [n for n in exported if not hasattr(pkg, n)]\n"
        "unlisted = sorted(set(exported) - set(dir(pkg)))\n"
        "submodules = {m.name for m in pkgutil.iter_modules(pkg.__path__)}\n"
        "lazy_collisions = sorted(n for n in exported\n"
        "                         if n in submodules and n not in eager)\n"
        "print(json.dumps([missing, unlisted, lazy_collisions]))\n")
    assert report == [[], [], []]


def test_export_named_like_its_submodule_stays_the_function():
    kinds = _fresh(
        "import json\n"
        "import repro.crypto.sha256\n"
        "import repro.obs.redact\n"
        "from repro.crypto import sha256\n"
        "from repro.obs import redact\n"
        "print(json.dumps([type(sha256).__name__, type(redact).__name__,\n"
        "                  sha256(b'').hex()[:8]]))\n")
    assert kinds == ["function", "function", "e3b0c442"]
