"""Decoded windows pinned bit for bit.

`test_golden_verdicts` pins failure counts only, so a correction chain
that moved to a homologically equivalent one would pass it.  Here each
window's verdicts and both correction planes are hashed, over fixed
windows of the standard model at p = 0.01 and T = 10d: any change to
what the sampler draws, to which events are matched, or to which data
cells a correction flips fails these tests.
"""

import hashlib

import pytest

from surfacesim.harness import _setup
from surfacesim.noise import preset, trial_rng
from surfacesim.sim import simulate_window

SEED = 1

# (d, metric, windows) -> sha256 over every window's (logical_x_failed,
# logical_z_failed, x correction plane, z correction plane).
CORRECTION_DIGESTS = {
    (3, "manhattan", 300):
        "5a756180ae97adcf9e60d042b2594346a9bdcfdf7a333a7736eb1d21bbda3fa7",
    (3, "dmax", 300):
        "50ded2fbbad051ae84b24b5ef80a7de039c4531d3d61ffb188786a2d5971704f",
    (3, "d0", 300):
        "b581c0f810f8d8f76ceb188777f101d843c631335d3852337df43170aa97136f",
    (3, "d1", 300):
        "5152126792ad9dceb7eced673a1e94de279478cc1bc141cb559b84a850e6ec38",
    (3, "d2", 300):
        "5152126792ad9dceb7eced673a1e94de279478cc1bc141cb559b84a850e6ec38",
    (5, "dmax", 40):
        "4733b2e782e87252326e86bb03e748672b7e1148a8c5c56c8102cc6d42756063",
    # Most graphs of these windows are large enough for the decoder's
    # array route; the digests were recorded when it had only the scan.
    (5, "manhattan", 40):
        "a301d9309e6e306163bed9aeacae4f6102abcea608b4a82985a5624fdd2f317f",
    (7, "dmax", 8):
        "91c05da6594d7466edc51a117a155e70515ad6d1c89c39475943c14346d2911a",
}


def _correction_digest(d: int, metric: str, windows: int) -> str:
    model = preset("standard", 0.01)
    circuit, decoder = _setup(d, model, metric)
    h = hashlib.sha256()
    for i in range(windows):
        res = simulate_window(circuit, model, trial_rng(SEED, i), 10 * d)
        out = decoder.decode(res.history, res.frame, collect_matches=False)
        h.update(repr((out.logical_x_failed, out.logical_z_failed,
                       out.corrections["x"].tobytes(),
                       out.corrections["z"].tobytes())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("d,metric,windows", list(CORRECTION_DIGESTS),
                         ids=[f"d{d}-{m}" for d, m, _ in CORRECTION_DIGESTS])
def test_correction_planes_are_bit_identical(d, metric, windows):
    assert _correction_digest(d, metric, windows) == CORRECTION_DIGESTS[d, metric, windows]
