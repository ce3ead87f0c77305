"""Set-up output pinned bit for bit.

The link-class table and the decoder's gain tables are hashed here and
compared with recorded digests, so any change to what set-up produces,
down to the last bit of a float or the order of a class's members, fails
these tests.  Floats enter the hash through `repr`, which round-trips
every bit.
"""

import functools
import hashlib

import pytest

from surfacesim.decoder import Decoder
from surfacesim.edge_analysis import derive_edge_classes
from surfacesim.lattice import build_lattice, standard_schedule
from surfacesim.noise import preset
from surfacesim.sim import compile_circuit


@functools.cache
def _table(d, model):
    lat = build_lattice(d)
    return derive_edge_classes(compile_circuit(lat, standard_schedule(lat)),
                               preset(model, 0.01))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _members(cls):
    return [(m.graph, m.location, m.component, m.prob_class, repr(m.probability))
            for m in cls.members]


def _class_table_digest(table) -> str:
    classes = []
    for graph in ("x", "z"):
        for key, cls in table.pair_classes[graph].items():
            classes.append((graph, key, repr(cls.probability), cls.cells, cls.dt,
                            cls.offset, _members(cls)))
        for key, cls in table.boundary_classes[graph].items():
            classes.append((graph, key, repr(cls.probability), cls.cells, cls.side,
                            _members(cls)))
    return _digest((table.to_json(), classes))


def _decoder_digest(decoder) -> str:
    parts = []
    for graph in ("x", "z"):
        tab = decoder._tables[graph]
        parts.append((graph, tab["cells"], [repr(w) for w in tab["bvals"]], tab["bsides"],
                      [[[repr(g) for g in row] for row in rows] for rows in tab["gtab"]],
                      tab["reach"]))
    return _digest(parts)


CLASS_DIGESTS = {
    (3, "standard"):
        "035a126e001bc07179c39a05f8201c557aeabe0b7b19f588f2e8a7da15c67dd2",
    (3, "balanced"):
        "5886f7c0d66efda8cdb7d40a492a78d3c8b706e31afae2f90d0e4b4852e51e9d",
    (3, "iontrap"):
        "3b2554fa4a9b49373d05dedeca5762d23797b51c30ee197c7d13db8a22b3b412",
    (5, "standard"):
        "05b814ea3c7617cdb698e462306a25c56f3e589e581ffe44e2efd9cd45aa6b90",
    (5, "balanced"):
        "5a87440132ccfdd51242fef83e984477ea47583c77057f8da34467a84cff29a6",
    (5, "iontrap"):
        "70b640041a5a2d5ebc270cd1de761517b9373d8841f042c3692be01d477b442a",
}


DECODER_DIGESTS = {
    (3, "manhattan"):
        "5d42f19d7bbdf369e670bb3bbe2606fd0b06190f832a318f73e3d08cd94012ff",
    (3, "dmax"):
        "04cd8f9d092c3b08184e7712005c8125db7df154c5dcf098a8ff2e93380f5a72",
    (3, "d0"):
        "48a029201f1b5b82395b1dec7e770911323074b3b3dc8557e1d4e87e32f372b1",
    (3, "d1"):
        "42ee5aa39f22f65d4c1ade4602d6d4c35095a79b3d402eb6696b7d8863555b82",
    (3, "d2"):
        "44d98f6a8fdb712e336d4b2e1cd92dde78e9691feb273df18784226650c3b52e",
    (5, "d0"):
        "2b4045a278b382626615ec0da0b36d27765cf926efc6b698c07dbffbec129eac",
    (5, "d1"):
        "e92ad026107ac29bbbfd2d8c466b69c3914c320c9067d5eddca4147d4edf533b",
    (5, "d2"):
        "ae87a30381ce2f176ce0c282d6fc7e1fba761c024e1b8bcf97ba96431cd569b2",
    (5, "dmax"):
        "aa7c4d6d77f6c7e3b0e3d82d73421154e0f3d1709bbd2d3e7c715ec9ff6b1f12",
    (5, "manhattan"):
        "3ea28366fe648ab5dc1f14316b0106c5f008e6dbc5c5c5c7c87870b281e8119c",
}


@pytest.mark.parametrize("d,model", sorted(CLASS_DIGESTS))
def test_link_class_table_is_bit_identical(d, model):
    assert _class_table_digest(_table(d, model)) == CLASS_DIGESTS[d, model]


@pytest.mark.parametrize("d,metric", sorted(DECODER_DIGESTS))
def test_decoder_tables_are_bit_identical(d, metric):
    assert _decoder_digest(Decoder(_table(d, "standard"), metric)) == DECODER_DIGESTS[d, metric]
