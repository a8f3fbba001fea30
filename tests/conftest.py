import numpy as np
import pytest
from hypothesis import settings

from termforge.corpus import Corpus, Segment, Utterance

# Derandomized so a tier-1 run is repeatable; no deadline, because the first
# call into numpy can take longer than hypothesis's 200 ms default.
settings.register_profile("termforge", deadline=None, derandomize=True)
settings.load_profile("termforge")


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true",
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: pass --run-slow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20250809))


def make_utterance(utt_id, symbols, frames_per_symbol=2, feature_dim=4, fill=None):
    """Utterance whose features encode the symbol id in every frame."""
    spans = []
    cursor = 0
    rows = []
    for sym in symbols:
        spans.append((cursor, cursor + frames_per_symbol))
        cursor += frames_per_symbol
        value = float(sym) if fill is None else fill
        rows.extend([[value] * feature_dim] * frames_per_symbol)
    features = np.array(rows, dtype=np.float32)
    return Utterance(utt_id, features, tuple(symbols), tuple(spans))


def make_corpus(symbol_lists, frames_per_symbol=2, feature_dim=4, alphabet_size=55):
    utts = [make_utterance(f"u{i}", syms, frames_per_symbol, feature_dim)
            for i, syms in enumerate(symbol_lists)]
    return Corpus(feature_dim, alphabet_size, utts)


def make_segment(seg_id, utt_id, sym_span, corpus, frames_per_symbol=2):
    utt = corpus[utt_id]
    lo, hi = sym_span
    return Segment(
        id=seg_id,
        utterance_id=utt_id,
        start=utt.frame_spans[lo][0],
        end=utt.frame_spans[hi - 1][1],
        symbols=utt.transcription[lo:hi],
    )
