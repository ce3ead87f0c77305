"""The sweep scripts under `results/` load and describe valid sweeps.

The scripts take minutes to run and nothing imports them, so a rename of
a private name they use (`harness._setup`, `sim._graph_events`) would
otherwise show only in a rerun.  Each script is loaded by path, which
does not run its `main`.
"""

import importlib.util
from pathlib import Path

import pytest

from surfacesim.harness import TrialConfig

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _load(script: str):
    spec = importlib.util.spec_from_file_location(f"results_{script}", RESULTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,sweep", [("headline", "configs"),
                                          ("calibration", "phenomenological"),
                                          ("calibration", "code_capacity")])
def test_sweep_is_a_list_of_trial_configs(script, sweep):
    # TrialConfig checks every field when constructed.
    configs = getattr(_load(script), sweep)()
    assert configs and all(isinstance(cfg, TrialConfig) for cfg in configs)


def test_tie_spread_patches_the_event_reader_the_decoder_calls():
    headline = _load("headline")
    assert headline.decoder_module._graph_events is headline._graph_events
