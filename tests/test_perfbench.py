"""The benchmark's self-test, so that renaming a name it reaches fails here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_target():
    # the self-test never installs the tracer, so a renamed or removed
    # target would otherwise only fail ``run.py --trace 1``
    workloads = _load_perfbench("workloads")
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer(workloads.import_program())

    def current(path):
        owner, attr = tracer._resolve(path)
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [current(path) for path, _ in tracing.TARGETS]
    with tracer:
        assert len(tracer._saved) == len(tracing.TARGETS) + 1  # + noise.trial_rng
        for (path, _), original in zip(tracing.TARGETS, before):
            assert current(path) is not original, path
    assert [current(path) for path, _ in tracing.TARGETS] == before
