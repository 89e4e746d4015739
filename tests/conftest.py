import pytest

from hermcap import FieldSpec, build_field, enumerate_surface

_SPECS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
_MODELS = {}


def get_model(q):
    """Process-wide model cache; building q=7 takes a few seconds."""
    if q not in _MODELS:
        _MODELS[q] = enumerate_surface(build_field(FieldSpec(*_SPECS[q])))
    return _MODELS[q]


@pytest.fixture(scope="session")
def model_q2():
    return get_model(2)


@pytest.fixture(scope="session")
def model_q3():
    return get_model(3)


@pytest.fixture(scope="session")
def model_q5():
    return get_model(5)


@pytest.fixture(scope="session")
def model_q7():
    return get_model(7)
