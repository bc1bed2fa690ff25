from pathlib import Path

import pytest
from subspace_reference import verified_splits

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_NAMES = (
    "p2_tangent",
    "p2_line_d0",
    "p2_sum_d0_d12",
    "p2_sum_three",
    "blp2_sum",
    "p2_rank3",
    "p3_tangent",
    "hirzebruch_h2_tangent",
    "hirzebruch_printed_tangent",
)


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


@pytest.fixture(scope="session", autouse=True)
def _every_split_meets_the_sum_condition():
    with verified_splits():
        yield


@pytest.fixture(scope="session")
def documents():
    from toricbundles import load_document

    return {name: load_document(fixture_path(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def p2_tangent(documents):
    return documents["p2_tangent"]


@pytest.fixture(scope="session")
def blp2_sum(documents):
    return documents["blp2_sum"]


@pytest.fixture(scope="session")
def p2_rank3(documents):
    return documents["p2_rank3"]
