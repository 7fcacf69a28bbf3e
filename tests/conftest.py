import pytest

from lambda_asg.measures import CoupledMeasure, FiniteMeasure1D, coupling_from_pair


@pytest.fixture
def example_pair() -> tuple[FiniteMeasure1D, FiniteMeasure1D]:
    """The worked ordered pair: two atoms below, three above."""
    lm = FiniteMeasure1D.from_atoms([(0.25, 0.5), (0.5, 0.5)])
    lp = FiniteMeasure1D.from_atoms([(0.5, 1 / 3), (0.75, 1 / 3), (1.0, 1 / 3)])
    return lm, lp


@pytest.fixture
def example_coupling(example_pair) -> CoupledMeasure:
    return coupling_from_pair(*example_pair)


@pytest.fixture
def neutral_coupling() -> CoupledMeasure:
    """z = 0 everywhere: both types reproduce identically."""
    return CoupledMeasure.from_atoms([(0.3, 0.0, 0.7), (0.6, 0.0, 0.3)])


@pytest.fixture
def mild_selective_coupling() -> CoupledMeasure:
    return CoupledMeasure.from_atoms([(0.4, 0.15, 0.8), (0.7, 0.1, 0.6)])


@pytest.fixture
def pool_workers(monkeypatch) -> list[int]:
    """Worker counts of the thread pools started while the test runs."""
    import concurrent.futures

    started: list[int] = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return started
