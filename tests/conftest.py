import pytest

from gyblink import rep
from gyblink.enhancement import catalog_enhancement


@pytest.fixture(autouse=True)
def fresh_plans():
    # rep keeps greedy plans per block layout for the life of the process; a
    # test that fakes _greedy_plan must not leave its fake plan to the next
    rep._compiled.cache_clear()


@pytest.fixture(scope="session")
def s_type1():
    return catalog_enhancement("type1", 0.3)


@pytest.fixture(scope="session")
def s_type2():
    return catalog_enhancement("type2", 0.3)


@pytest.fixture(scope="session")
def s_type3():
    return catalog_enhancement("type3", 0.3)


@pytest.fixture(scope="session")
def s_r232():
    return catalog_enhancement("r232")


@pytest.fixture(scope="session")
def all_enhancements(s_type1, s_type2, s_type3, s_r232):
    return {"type1": s_type1, "type2": s_type2, "type3": s_type3, "r232": s_r232}
