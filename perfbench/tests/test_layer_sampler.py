"""The sampler on a synthetic two-layer busy loop."""

import importlib.util
import signal
import time

import pytest

from perfbench.trace import LayerSampler

SPIN = '''
import time

def spin(cpu_seconds, then=None):
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass
    if then is not None:
        then()
'''


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def package(tmp_path):
    """A fake ``src/repro``: baselines/backend.py starts sim/loop.py,
    which runs games/tick.py's callback."""
    modules = {}
    for layer, name in (("sim", "loop"), ("games", "tick"), ("baselines", "backend")):
        (tmp_path / layer).mkdir()
        path = tmp_path / layer / f"{name}.py"
        path.write_text(SPIN)
        modules[layer] = load(path)
    return tmp_path, modules


def busy(modules):
    # a third of the CPU time in sim's own frames, two thirds in the
    # games callback that sim calls; the experiment that started the
    # event loop lives in baselines, as ``ArchitectureBackend.run`` does
    modules["baselines"].spin(
        0.0,
        then=lambda: modules["sim"].spin(
            0.2, then=lambda: modules["games"].spin(0.4)
        ),
    )


def test_attributes_a_two_layer_busy_loop(package):
    directory, modules = package
    sampler = LayerSampler(str(directory))
    sampler.start()
    try:
        busy(modules)
    finally:
        sampler.stop()
    assert sampler.samples >= 50
    games = sampler.self_samples["games"] / sampler.samples
    sim = sampler.self_samples["sim"] / sampler.samples
    assert games + sim >= 0.9
    assert games == pytest.approx(2 / 3, abs=0.1)
    # The owner is what the event loop called, not what started the
    # loop: games owns its callback, the loop's own time stays with sim.
    assert sampler.owner_samples["games"] == sampler.self_samples["games"]
    assert sampler.owner_samples["sim"] == sampler.self_samples["sim"]
    assert sampler.owner_samples["baselines"] <= 1


def test_ignored_files_are_not_charged(package):
    directory, modules = package
    sampler = LayerSampler(
        str(directory), ignore_files=(modules["games"].__file__,)
    )
    sampler.start()
    try:
        busy(modules)
    finally:
        sampler.stop()
    assert sampler.self_samples["games"] == 0
    assert sampler.self_samples["sim"] == sampler.samples > 0


def test_restores_previous_handler_and_timer(package):
    directory, _ = package

    def previous_handler(signum, frame):
        pass

    before = signal.signal(signal.SIGPROF, previous_handler)
    signal.setitimer(signal.ITIMER_PROF, 1000.0, 500.0)
    try:
        sampler = LayerSampler(str(directory))
        sampler.start()
        time.sleep(0.01)
        sampler.stop()
        assert signal.getsignal(signal.SIGPROF) is previous_handler
        delay, interval = signal.getitimer(signal.ITIMER_PROF)
        assert interval == 500.0
        assert delay == pytest.approx(1000.0, abs=10.0)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, before)
