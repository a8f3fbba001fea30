"""Data model and on-disk format for pseudo-transcribed speech corpora.

A corpus directory contains:

    manifest.json   `_Manifest`'s init fields, per utterance an `_Entry`
                    (id, frames, symbols, starts, ends), where symbol k of
                    an utterance spans its frames [starts[k], ends[k])
    features.npy    every utterance's frames, in manifest order, as one
                    (total frames, feature_dim) little-endian float32 matrix
                    in NumPy's .npy format, written by `util.write_npy` and
                    read by `util.read_npy`
    gold.json       optional word-level ground truth, `GoldAnnotation`'s init
                    fields, per utterance an `UtteranceGold`, which lookups bisect

Feature payloads are float32 so that write -> load round-trips are bit-exact.
A Corpus is immutable after load and safe for concurrent readers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .util import from_json, read_json, read_npy, write_json, write_npy


class CorpusError(ValueError):
    """Malformed corpus data or violated invariant."""


@dataclass(eq=False)
class Utterance:
    """One utterance: frame features plus its symbol-aligned pseudo-transcription."""

    id: str
    features: np.ndarray                       # (frames, feature_dim) float32
    transcription: tuple[int, ...]
    frame_spans: tuple[tuple[int, int], ...]   # half-open, sorted, non-overlapping

    @property
    def frames(self) -> int:
        return int(self.features.shape[0])

    def validate(self, feature_dim: int, alphabet_size: int) -> None:
        if self.features.ndim != 2:
            raise CorpusError(f"{self.id}: feature matrix must be 2-D")
        if self.frames == 0:
            raise CorpusError(f"{self.id}: empty utterance")
        if self.features.shape[1] != feature_dim:
            raise CorpusError(
                f"{self.id}: feature dim {self.features.shape[1]} != manifest {feature_dim}"
            )
        if len(self.transcription) != len(self.frame_spans):
            raise CorpusError(f"{self.id}: span/symbol length mismatch")
        prev_end = 0
        for sym, (start, end) in zip(self.transcription, self.frame_spans):
            if not 0 <= sym < alphabet_size:
                raise CorpusError(f"{self.id}: symbol {sym} outside alphabet")
            if start < prev_end or end <= start:
                raise CorpusError(f"{self.id}: spans must be sorted and non-empty")
            if end > self.frames:
                raise CorpusError(f"{self.id}: span overflow ({end} > {self.frames})")
            prev_end = end


@dataclass(slots=True)
class Segment:
    """A hypothesized term occurrence inside one utterance."""

    id: int
    utterance_id: str
    start: int                                 # frame span, half-open
    end: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.end <= self.start:
            raise CorpusError(f"segment {self.id}: end must exceed start")
        if not self.symbols:
            raise CorpusError(f"segment {self.id}: symbols must be non-empty")


@dataclass
class GoldToken:
    word: int
    start: int
    end: int
    symbols: tuple[int, ...]


@dataclass
class UtteranceGold:
    """One utterance's gold in the shape of gold.json, and its lookup index.

    True spans and word tokens are sorted by start and do not overlap
    (`GoldAnnotation` checks this), so their ends are sorted as well: the
    spans that overlap [start, end) are the run from bisect_right(ends,
    start) to bisect_left(starts, end).
    """

    boundaries: tuple[int, ...]                # strictly increasing, first=0, last=frames
    tokens: tuple[GoldToken, ...]              # word tokens only (fillers excluded)
    true_symbols: tuple[int, ...]              # pre-noise transcription, fillers included
    true_starts: tuple[int, ...]               # frame span of each true symbol
    true_ends: tuple[int, ...]
    token_starts: list[int] = field(init=False, compare=False)
    token_ends: list[int] = field(init=False, compare=False)

    def __post_init__(self):
        self.token_starts = [t.start for t in self.tokens]
        self.token_ends = [t.end for t in self.tokens]

    def tokens_overlapping(self, start: int, end: int) -> slice:
        """The run of word tokens that overlap frames [start, end)."""
        lo = bisect_right(self.token_ends, start)
        return slice(lo, bisect_left(self.token_starts, end, lo))

    def overlapped_symbols(self, start: int, end: int) -> tuple[int, ...]:
        """The true symbols whose frame span overlaps [start, end) by at
        least half its duration."""
        lo = bisect_right(self.true_ends, start)
        out = []
        for k in range(lo, bisect_left(self.true_starts, end, lo)):
            s, e = self.true_starts[k], self.true_ends[k]
            inter = (end if end < e else e) - (start if start > s else s)
            if inter > 0 and inter >= 0.5 * (e - s):
                out.append(self.true_symbols[k])
        return tuple(out)


@dataclass
class GoldAnnotation:
    """Word-level ground truth per utterance. Raises CorpusError naming the
    utterance when its true spans or word tokens are not sorted by start and
    non-overlapping, or its boundaries are not strictly increasing, since a
    bisection over them would mis-score without any error."""

    utterances: dict[str, UtteranceGold]

    def __post_init__(self):
        for utt_id, gold in self.utterances.items():
            bounds = gold.boundaries
            if any(b >= c for b, c in zip(bounds, bounds[1:])):
                raise CorpusError(f"{utt_id}: gold boundaries must be strictly sorted")
            if not len(gold.true_symbols) == len(gold.true_starts) == len(gold.true_ends):
                raise CorpusError(f"{utt_id}: gold true_symbols, true_starts and "
                                  "true_ends must have one entry per symbol")
            for what, starts, ends in (
                    ("true spans", gold.true_starts, gold.true_ends),
                    ("tokens", gold.token_starts, gold.token_ends)):
                if (any(e < s for s, e in zip(starts, ends))
                        or any(s < e for s, e in zip(starts[1:], ends))):
                    raise CorpusError(f"{utt_id}: gold {what} must be sorted by start "
                                      "and non-overlapping")

    def validate(self, corpus: "Corpus") -> None:
        """Gold for exactly the corpus's utterances, each ending at the
        utterance's last frame."""
        if set(self.utterances) != set(corpus.ids):
            raise CorpusError("gold must annotate exactly the corpus utterances: "
                              f"missing {sorted(set(corpus.ids) - set(self.utterances))}, "
                              f"extra {sorted(set(self.utterances) - set(corpus.ids))}")
        for utt_id, gold in self.utterances.items():
            frames = corpus[utt_id].frames
            bounds = gold.boundaries
            if not bounds or bounds[0] != 0 or bounds[-1] != frames:
                raise CorpusError(f"{utt_id}: gold boundaries must start at 0 and end at {frames}")


class Corpus:
    """Validated, ordered collection of utterances with a shared feature space."""

    def __init__(self, feature_dim: int, alphabet_size: int, utterances: list[Utterance]):
        if not all(type(v) is int for v in (feature_dim, alphabet_size)):
            raise CorpusError(f"feature_dim and alphabet_size must be ints, got "
                              f"{feature_dim!r} and {alphabet_size!r}")
        self.feature_dim = feature_dim
        self.alphabet_size = alphabet_size
        self._utterances: dict[str, Utterance] = {}
        for utt in utterances:
            if utt.id in self._utterances:
                raise CorpusError(f"duplicate utterance id {utt.id}")
            utt.validate(self.feature_dim, self.alphabet_size)
            self._utterances[utt.id] = utt

    @property
    def ids(self) -> list[str]:
        return list(self._utterances)

    def __len__(self) -> int:
        return len(self._utterances)

    def __iter__(self):
        return iter(self._utterances.values())

    def __getitem__(self, utt_id: str) -> Utterance:
        try:
            return self._utterances[utt_id]
        except KeyError:
            raise CorpusError(f"unknown utterance {utt_id!r}") from None

    def total_frames(self) -> int:
        return sum(u.frames for u in self)


def slice_features(corpus: Corpus, segment: Segment) -> np.ndarray:
    """Rows [start, end) of the segment's utterance feature matrix."""
    utt = corpus[segment.utterance_id]
    if not 0 <= segment.start < segment.end <= utt.frames:
        raise CorpusError(
            f"segment {segment.id}: span ({segment.start}, {segment.end}) "
            f"out of range for {utt.id} with {utt.frames} frames"
        )
    return utt.features[segment.start:segment.end]


# ---------------------------------------------------------------------------
# on-disk formats


@dataclass
class _Entry:
    id: str
    frames: int
    symbols: tuple[int, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]


@dataclass
class _Manifest:
    feature_dim: int
    alphabet_size: int
    utterances: list[_Entry]


def write_corpus(corpus: Corpus, path) -> None:
    """Persist a corpus; load_corpus(write_corpus(c)) reproduces c bit-exactly."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    rows = [utt.features for utt in corpus] or [np.empty((0, corpus.feature_dim))]
    write_npy(root / "features.npy", np.concatenate(rows))
    # last, so a manifest never lists an utterance whose features are not yet written
    write_json(root / "manifest.json", _Manifest(corpus.feature_dim, corpus.alphabet_size, [
        _Entry(utt.id, utt.frames, utt.transcription, tuple(s for s, _ in utt.frame_spans),
               tuple(e for _, e in utt.frame_spans)) for utt in corpus]))


def load_corpus(path) -> Corpus:
    """Load and validate a corpus directory. Each utterance's features are a
    view of the one feature matrix. A missing or malformed file, or a
    manifest entry that does not fit the matrix, raises a CorpusError that
    names the file (and the utterance)."""
    root = Path(path)
    manifest_path, features_path = root / "manifest.json", root / "features.npy"
    for required in (manifest_path, features_path):
        if not required.is_file():
            raise CorpusError(f"missing corpus file: {required}")
    try:
        features = read_npy(features_path, 2)
        return read_json(manifest_path, lambda manifest: _decode_manifest(manifest, features))
    except ValueError as exc:   # a CorpusError too; either way the message names the file
        raise CorpusError(str(exc)) from None


def _decode_manifest(blob, features: np.ndarray) -> Corpus:
    manifest = from_json(_Manifest, blob, "corpus manifest", complete=True)
    utterances, offset = [], 0
    for entry in manifest.utterances:
        if entry.frames < 0:
            raise CorpusError(f"{entry.id}: frames must be non-negative, got {entry.frames}")
        if len(entry.starts) != len(entry.ends):
            raise CorpusError(f"{entry.id}: starts and ends differ in length")
        utterances.append(Utterance(entry.id, features[offset:offset + entry.frames],
                                    entry.symbols, tuple(zip(entry.starts, entry.ends))))
        offset += entry.frames
    if offset != len(features):
        raise CorpusError(f"its utterances have {offset} frames, but features.npy has "
                          f"{len(features)} rows")
    return Corpus(manifest.feature_dim, manifest.alphabet_size, utterances)


def load_gold(path) -> GoldAnnotation:
    """`write_json`'s gold; a malformed file raises a ValueError naming it and the field."""
    return read_json(path, lambda blob: from_json(GoldAnnotation, blob, "gold", complete=True))
