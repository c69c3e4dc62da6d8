"""The programs the engines build, pinned byte for byte.

Each digest is the SHA-256 of a program's ``to_arrays()`` arrays, its
``metadata()`` and its ``write_lp`` text, recorded while every row was
still stored as its own ``LinExpr`` (the aggregate program's while every
column was still its own object).  Most of a HiGHS solve goes to a
heuristic whose time swings with any change to the program, so a change
to how programs are stored must leave every digest as it is.  A change
that means to alter a program records the new digest and says why.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from cltlsynth.encoder_cltl import build_cltl_problem
from cltlsynth.encoder_continuous import build_cont_problem
from cltlsynth.encoder_robust import build_robust_problem
from cltlsynth.encoder_sync import build_sync_problem
from cltlsynth.formula import parse_formula
from cltlsynth.lp_format import write_lp
from cltlsynth.system import ContinuousSystem

from conftest import emergency_instance


def program_digest(model) -> str:
    digest = hashlib.sha256()
    arrays = model.to_arrays()
    for array in (*arrays.matrix[:3], *arrays[1:]):
        digest.update(array.tobytes())
    digest.update(json.dumps(model.metadata(), sort_keys=True).encode())
    text = io.StringIO()
    write_lp(model, text)
    digest.update(text.getvalue().encode())
    return digest.hexdigest()


def double_integrators() -> ContinuousSystem:
    """Two planar double integrators (position, velocity) with a box goal
    A and a band B, so rows carry coefficients other than 1."""
    f = np.array([[1.0, 0.5], [0.0, 1.0]])
    g = np.array([[0.125], [0.5]])
    box = (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
           np.array([3.5, -2.5, 0.25, 0.25]))
    band = (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0 / 3, 1.0 / 3]))
    return ContinuousSystem(
        dynamics=((f, g, np.zeros(2)), (f, g, np.array([0.0, 0.0]))),
        init=(np.array([0.0, 0.0]), np.array([1.0, 0.0])),
        atoms={"A": box, "B": band},
        state_bounds=(np.array([-4.0, -1.5]), np.array([4.0, 1.5])),
        input_bounds=(np.array([-1.0]), np.array([1.0])))


def desk(h):
    inst, mu = emergency_instance()
    return build_sync_problem(inst, mu, h)


def desk_robust(h):
    inst, _ = emergency_instance()
    return build_robust_problem(inst, parse_formula("G F [A,2] & G F [C,2] & G [!D,4]"),
                                h, 1)


def desk_aggregate(h):
    """The aggregate engine's program: integer occupancy and flow columns."""
    inst, _ = emergency_instance()
    return build_cltl_problem(inst, parse_formula("G F [A,2] & G F [C,2] & G [!D,4]"), h)


def integrators(h):
    return build_cont_problem(double_integrators(),
                              parse_formula("G F [A, 1] & F [B, 2] & G !([A, 2])"), h)


PROGRAMS = {  # name: (builder, h, SHA-256 of the program)
    "desk-h8": (desk, 8,
                "245d17314888f30c06f90c695dc6213bf936c7967dd058b0f7cccaf27e159f71"),
    "desk-h12": (desk, 12,
                 "bae1b02d4ab535ba64f0ad17d164c9a8bfccdf8e4165723fda51ff2324fda9a9"),
    "desk-h16": (desk, 16,
                 "5c2ade5e65eaa46887ba3a1f974cc38c72c2eb9af6974e4d364e549a5695637b"),
    "desk-tau1-h6": (desk_robust, 6,
                     "907ec086df51c43219b60ba2c77e0cfcb8db740601f596ac35998fe8b98bc9fb"),
    "desk-aggregate-h8": (
        desk_aggregate, 8, "9ba57a3efbd32a9fa562076bea5a3fd35482662562f2330f66b8905cfe2e8307"),
    "double-integrators-h5": (
        integrators, 5, "4246ce0b4021c54ac1af6fd536e8aeea1c41d2b7a00e0cccba4fca7d3a785ae5"),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_program_is_identical_to_the_recorded_one(name):
    build, h, want = PROGRAMS[name]
    assert program_digest(build(h).model) == want
