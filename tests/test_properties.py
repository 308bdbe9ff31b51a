"""Property tests of config validation and the CLI's handling of bad
configs, on generated JSON payloads, of the amplitude contraction on
generated association matrices, and of deferred acceptance on
generated gains full of exact ties."""

import contextlib
import dataclasses
import io
import json
import os
import tempfile

from hypothesis import assume, event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np

from cfmatch import ChannelRealization, EvalContext, ScenarioConfig, da_m2m, load_config, main
from bruteforce import reference_da_m2m
from helpers import assert_amplitudes, beam_weights, random_channels, small_config

FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)]

# Bounded and reproducible: the same examples on every run, none saved.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3), max_leaves=6)


def _near(default):
    """Values of the default's type around the valid range of a field."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-1, 60)
    if isinstance(default, float):
        return st.floats(-1.0, 1e3) | st.integers(0, 100)
    if isinstance(default, tuple):
        return st.lists(st.floats(0.5, 1e3), min_size=1, max_size=3)
    return st.sampled_from(["step", "episode"])


DEFAULTS = ScenarioConfig()


def _entry(name):
    """(key, value) of a config field, or of an unknown key for None."""
    if name is None:
        return st.tuples(st.text(min_size=1, max_size=8), ANY_JSON)
    near = _near(getattr(DEFAULTS, name))
    # three to one for values of the field's own type
    return st.tuples(st.just(name), st.one_of(near, near, near, ANY_JSON))


ENTRIES = st.sampled_from(FIELDS + [None]).flatmap(_entry)
PAYLOADS = st.lists(ENTRIES, max_size=4).map(dict)


def _load(tmp, text):
    """load_config of a file in tmp holding text."""
    path = os.path.join(tmp, "config.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return load_config(path)


def _rejected(tmp, key, value) -> bool:
    """Whether a config holding only key = value is rejected; a
    rejection must name key."""
    try:
        _load(tmp, json.dumps({key: value}))
    except ValueError as exc:
        assert key in str(exc), f"error for {key!r} does not name it: {exc}"
        return True
    return False


@PROPERTY_SETTINGS
@given(PAYLOADS)
def test_config_round_trips_or_names_a_bad_field(payload):
    with tempfile.TemporaryDirectory() as tmp:
        bad = {key for key, value in payload.items() if _rejected(tmp, key, value)}
        try:
            cfg = _load(tmp, json.dumps(payload))
        except ValueError as exc:
            event("rejected")
            assert bad, f"valid fields rejected: {exc}"
            assert any(key in str(exc) for key in bad), str(exc)
            return
        event("valid")
        assert not bad
        for key, value in payload.items():
            assert getattr(cfg, key) == (tuple(value) if isinstance(value, list) else value)
        assert _load(tmp, json.dumps(dataclasses.asdict(cfg))) == cfg


BAD_TEXT = (st.text(max_size=20)
            | PAYLOADS.map(json.dumps)
            | ANY_JSON.map(json.dumps))


@PROPERTY_SETTINGS
@given(BAD_TEXT)
def test_main_exits_2_on_a_bad_config_and_writes_nothing(text):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _load(tmp, text)
        except ValueError:
            pass
        else:
            assume(False)  # a valid config: not this property's input
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["--config", os.path.join(tmp, "config.json"),
                       "--strategies", "bc", "--seeds", "1", "--out", out])
        assert rc == 2
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(out)


MATCHINGS = st.tuples(st.integers(1, 8), st.integers(1, 16)).flatmap(
    lambda shape: arrays(bool, shape))


@PROPERTY_SETTINGS
@given(MATCHINGS, st.integers(0, 2 ** 32 - 1))
def test_amplitudes_of_any_matching_equal_one_einsum(assoc, seed):
    num_ues, num_aps = assoc.shape
    rng = np.random.default_rng(seed)
    ctx = EvalContext(random_channels(rng, num_ues, num_aps, 2),
                      small_config(num_aps, num_ues, antennas_per_ap=2))
    w = beam_weights(ctx, assoc)
    event("wide branch" if 2 * assoc.sum(axis=1).max() > num_aps else "cluster columns")
    assert_amplitudes(ctx, w, ctx.amplitudes(w))


# integer gains from a range of three: most rows and columns hold ties
TIED_GAINS = st.tuples(st.integers(1, 6), st.integers(1, 9)).flatmap(
    lambda shape: arrays(float, shape, elements=st.integers(0, 2).map(float)))


@PROPERTY_SETTINGS
@given(TIED_GAINS, st.data())
def test_da_ranks_break_ties_as_the_preference_lists_do(gains, data):
    # da's stable argsorts of -gains must order equal gains by lower
    # index, exactly as the reference's sorted lists do
    num_ues, num_aps = gains.shape
    cfg = small_config(num_aps, num_ues,
                       ap_quota=data.draw(st.integers(1, num_ues + 1), label="ap_quota"),
                       ue_quota=data.draw(st.integers(1, num_aps + 1), label="ue_quota"))
    ch = ChannelRealization(gains=gains, vectors=np.sqrt(gains)[:, :, None].astype(complex),
                            distances=np.ones_like(gains))
    ctx = EvalContext(ch, cfg)
    demands = np.full(num_ues, 3e7)
    out, counters = da_m2m(ctx, demands, cfg)
    ref, ref_counters = reference_da_m2m(ctx, demands, cfg)
    np.testing.assert_array_equal(out, ref)
    assert counters == ref_counters
