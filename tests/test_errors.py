"""The errors that name an instance: names, arguments, attributes, messages."""

import pytest

from multinet import errors
from multinet.errors import MultinetError

# name: (positional arguments, vertex, layer, message), each message as the
# library has always worded it
INSTANCE_FAULTS = {
    "DanglingVertex": ((7,), 7, None, "vertex 7 has zero out-degree"),
    "ZeroDiagonal": ((3, 1), 3, 1, "ego matrix of vertex 3 has zero stay-probability in "
                                   "layer 1; composition undefined"),
    "ZeroDegree": ((0, 2), 0, 2, "vertex 0 has zero degree in layer 2 but its ego "
                                 "dynamics transition into that layer"),
    "IsolatedInstance": ((5, 0), 5, 0, "instance (vertex 5, layer 0) has zero total "
                                       "out-weight; layer marginal undefined"),
}


@pytest.mark.parametrize("name", INSTANCE_FAULTS)
def test_instance_fault_contract(name):
    args, vertex, layer, message = INSTANCE_FAULTS[name]
    exc = getattr(errors, name)(*args)
    assert type(exc).__name__ == name
    assert isinstance(exc, MultinetError)
    assert (exc.vertex, exc.layer) == (vertex, layer)
    assert str(exc) == message
    assert exc.args == (message,)
