import json
import time
from pathlib import Path

import pytest

from comring.verify import corpus_instance_report
from comring.core import Com
from comring.realize import Arrangement, covectors, parse_arrangement_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_arrangement(name: str) -> Arrangement:
    return parse_arrangement_json((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def gen3_arrangement() -> Arrangement:
    return load_arrangement("gen3.json")


@pytest.fixture(scope="session")
def gen3(gen3_arrangement) -> Com:
    return covectors(gen3_arrangement)


@pytest.fixture(scope="session")
def ex4_arrangement() -> Arrangement:
    return load_arrangement("ex4.json")


@pytest.fixture(scope="session")
def ex4(ex4_arrangement) -> Com:
    return covectors(ex4_arrangement)


@pytest.fixture(scope="session")
def corpus_results() -> tuple[float, list[dict]]:
    """100 seeded instances, each verified along with all its minors.

    Shared by the acceptance checks that quantify over the corpus; the
    elapsed wall time is recorded so the budget can be asserted once.
    """
    t0 = time.perf_counter()
    results = [corpus_instance_report(seed) for seed in range(100)]
    return time.perf_counter() - t0, results
