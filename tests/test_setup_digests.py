"""Set-up output pinned bit for bit.

The link-class table and the decoder's weight tables are hashed here and
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
                      [[[repr(w) for w in row] for row in rows] for rows in tab["wtab"]],
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
        "e7f045ae5a0fb7c2e2327aa99008791c3e86885aacff327123e248c6c9cfae8a",
    (3, "dmax"):
        "7c19c079e4fd9ed87580861f05de2690b64164d97143d86963e3239784ffddcd",
    (3, "d0"):
        "11662e946f0e90ba82211234f4d65e8ebff038901e9ad0e975391d69293adf3c",
    (3, "d1"):
        "86436f852ec2bbfb0e1b0eb8b7ea5439d508aa52c310cad131ce3634f5bd8aa5",
    (3, "d2"):
        "83b5cfc512efd4959365f4dd0a92797a732821edf159bbad09cd2fa403a91fa0",
    (5, "d0"):
        "b5c1d32c1adbe48d44bb38c18fa01497aad5fa82bd7d90ecef6fe74c179d12a8",
    (5, "d1"):
        "876bdabcf0dacb2439b5fef4b355269c40f2a9baddcccac5f678122f06719ee6",
    (5, "d2"):
        "d8acf8718239f3dc419bf5eca6745c971ebde6f392d0e86a88ed0d78d7d309b2",
    (5, "dmax"):
        "5a59e5349eb6d09146e7ae211bf493e6d4a952486807987ee039688105fa33df",
    (5, "manhattan"):
        "3f0b550d549b0e67b7bdc6f60f456bd6d31dfb2fdafc12432aaedc6f57f444a9",
}


@pytest.mark.parametrize("d,model", sorted(CLASS_DIGESTS))
def test_link_class_table_is_bit_identical(d, model):
    assert _class_table_digest(_table(d, model)) == CLASS_DIGESTS[d, model]


@pytest.mark.parametrize("d,metric", sorted(DECODER_DIGESTS))
def test_decoder_tables_are_bit_identical(d, metric):
    assert _decoder_digest(Decoder(_table(d, "standard"), metric)) == DECODER_DIGESTS[d, metric]
