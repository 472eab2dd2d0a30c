import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoseq.rscpc import RsCpcParams, pad_set, rs_cpc, tdma_set
from protoseq.sequences import (BinarySequence, SequenceSet, _pair_peaks,
                                _profile_rows, crt_map, crt_unmap,
                                cyclic_min_distance, cyclic_order,
                                cyclic_shift, hamming_xcorr, min_separation,
                                pairwise_xcorr_peaks, xcorr_profile)


def seq(period, ones):
    return BinarySequence(period, tuple(ones))


@st.composite
def sequences(draw, max_period=40):
    n = draw(st.integers(min_value=1, max_value=max_period))
    ones = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    return BinarySequence(n, tuple(sorted(ones)))


class TestBinarySequence:
    def test_basic(self):
        x = seq(5, [0, 3])
        assert x.weight == 2
        assert x.bits().tolist() == [1, 0, 0, 1, 0]
        assert x[3] == 1 and x[4] == 0
        assert x[8] == 1  # periodic indexing

    @given(sequences())
    def test_getitem_matches_bits(self, x):
        bits = x.bits().tolist()
        n = x.period
        assert [x[i] for i in range(-n, 2 * n)] == bits * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            seq(0, [])
        with pytest.raises(ValueError):
            seq(4, [4])
        with pytest.raises(ValueError):
            seq(4, [1, 1])
        in_range = "ones positions must lie in \\[0, period\\)"
        increasing = "ones must be strictly increasing and unique"
        # a list both out of range and out of order gets the range message
        with pytest.raises(ValueError, match=in_range):
            seq(4, [5, 1])
        with pytest.raises(ValueError, match=in_range):
            seq(4, [2, -1])
        with pytest.raises(ValueError, match=increasing):
            seq(4, [3, 3])
        with pytest.raises(ValueError, match=increasing):
            seq(4, [2, 1])
        x = seq(5, np.array([1, 3], dtype=np.int64))
        assert x.ones == (1, 3) and all(type(o) is int for o in x.ones)
        assert seq(3, []).ones == () and seq(3, []).weight == 0

    def test_positions_and_period_must_be_whole(self):
        with pytest.raises(ValueError, match="^period must be an integer, got 5.5$"):
            seq(5.5, [0])
        with pytest.raises(ValueError, match="^period must be an integer, got True$"):
            seq(True, [0])
        with pytest.raises(ValueError, match="^ones position must be an integer, got 1.7$"):
            seq(5, [0, 1.7])
        with pytest.raises(ValueError, match="^ones position must be an integer, got True$"):
            seq(5, [True, 3])
        with pytest.raises(ValueError, match="^ones position must be an integer, got '1'$"):
            BinarySequence.from_json({"period": 5, "ones": ["1"]})
        # a whole float, numpy's included, reads as its integer
        x = seq(np.int64(5), [np.float64(1.0), 3.0, np.int32(4)])
        assert (x.period, x.ones) == (5, (1, 3, 4))
        assert all(type(v) is int for v in (x.period, *x.ones))
        assert BinarySequence.from_json({"period": 5.0, "ones": [1.0]}) == seq(5, [1])
        # an iterator is read once, also where the fallback reads it
        assert seq(5, iter([0, 2.0, 4])).ones == (0, 2, 4)
        # out of range and out of order with a whole float: the range message
        with pytest.raises(ValueError, match="ones positions must lie"):
            seq(4, [5.0, 1])

    def test_from_bits_roundtrip(self):
        x = BinarySequence.from_bits([0, 1, 1, 0, 1])
        assert x.ones == (1, 2, 4)
        assert BinarySequence.from_string("01101").ones == (1, 2, 4)

    def test_json_roundtrip(self):
        x = seq(7, [0, 2, 5])
        assert BinarySequence.from_json(x.to_json()) == x
        assert BinarySequence.from_json({"bits": "1010"}).ones == (0, 2)

    def test_shift(self):
        x = seq(5, [0, 3])
        assert cyclic_shift(x, 1).ones == (1, 4)
        assert cyclic_shift(x, 2).ones == (0, 2)
        assert cyclic_shift(x, 5) == x
        assert cyclic_shift(x, -1).ones == (2, 4)

    @given(sequences(), st.integers(-100, 100))
    def test_shift_preserves_weight(self, x, t):
        assert cyclic_shift(x, t).weight == x.weight

    @given(sequences(), st.integers(-100, 100))
    def test_shift_roundtrip(self, x, t):
        assert cyclic_shift(cyclic_shift(x, t), -t) == x


class TestXcorr:
    def test_known_profile(self):
        # ones {0,1,2} against {0,2,3} in period 5
        x, y = seq(5, [0, 1, 2]), seq(5, [0, 2, 3])
        prof = xcorr_profile(x, y)
        expect = [hamming_xcorr(x, y, t) for t in range(5)]
        assert prof.tolist() == expect
        assert sum(expect) == x.weight * y.weight

    def test_against_bit_oracle(self):
        x, y = seq(9, [0, 4, 7]), seq(9, [1, 2, 8])
        for t in range(9):
            shifted = cyclic_shift(y, t).bits()
            manual = sum(a & b for a, b in zip(x.bits(), shifted))
            assert hamming_xcorr(x, y, t) == manual

    @given(sequences(), sequences())
    @settings(max_examples=60)
    def test_profile_sum_is_weight_product(self, x, y):
        if x.period != y.period:
            y = BinarySequence(x.period,
                               tuple(o for o in y.ones if o < x.period))
        assert int(xcorr_profile(x, y).sum()) == x.weight * y.weight

    @given(sequences())
    @settings(max_examples=60)
    def test_symmetry(self, x):
        n = x.period
        y = cyclic_shift(x, n // 2 + 1)
        px = xcorr_profile(x, y)
        py = xcorr_profile(y, x)
        # H(x,y)(t) == H(y,x)(n-t)
        for t in range(n):
            assert px[t] == py[(n - t) % n]

    def test_cyclic_min_distance(self):
        # two copies of the same sequence: distance 0 at the aligning shift
        x = seq(6, [0, 2])
        assert cyclic_min_distance([x, cyclic_shift(x, 3)]) == 0
        y = seq(6, [0, 3])
        # max correlation of {0,2} vs {0,3} is 1 -> distance 2+2-2 = 2
        assert cyclic_min_distance([x, y]) == 2


@st.composite
def families(draw):
    """2 to 8 members of one period in [1, 70], each of any weight from 0."""
    n = draw(st.integers(min_value=1, max_value=70))
    k = draw(st.integers(min_value=2, max_value=8))
    return [BinarySequence(n, tuple(sorted(draw(st.sets(
        st.integers(min_value=0, max_value=n - 1), max_size=n))))) for _ in range(k)]


def assert_peak_matrix(seqs):
    """_pair_peaks: symmetric, zero diagonal, and its upper triangle in
    row-major order is pairwise_xcorr_peaks's peak column."""
    peak = _pair_peaks(seqs)
    k = len(seqs)
    assert peak.dtype == np.int64 and peak.shape == (k, k)
    assert peak[np.triu_indices(k, 1)].tolist() == pairwise_xcorr_peaks(seqs)[2].tolist()
    assert (peak == peak.T).all() and not peak.diagonal().any()


def assert_matches_profiles(seqs):
    """pairwise_xcorr_peaks against xcorr_profile, pair by pair."""
    out = pairwise_xcorr_peaks(seqs)
    first, second, peak, shift = out
    pairs = [(i, j) for i in range(len(seqs)) for j in range(i + 1, len(seqs))]
    assert list(zip(first.tolist(), second.tolist())) == pairs
    for (i, j), pk, t in zip(pairs, peak.tolist(), shift.tolist()):
        prof = xcorr_profile(seqs[i], seqs[j])
        assert (pk, t) == (int(prof.max()), int(prof.argmax()))
    return out


class TestPairwiseXcorrPeaks:
    @given(families())
    @settings(max_examples=150, deadline=None)
    def test_matches_profile_of_every_pair(self, seqs):
        assert_matches_profiles(seqs)

    @pytest.mark.parametrize("n", [127, 128, 129, 255, 256, 32767, 32768, 32769])
    def test_residue_type_boundaries(self, n):
        # periods on either side of an integer type's range: the kernel's
        # table has 2n rows and member i reads rows n - a to 2n - a of it
        seqs = [seq(n, [0, 1, n // 2, n - 1]), seq(n, [n - 2, n - 1]),
                seq(n, [0, n // 3, n - 1])]
        assert_matches_profiles(seqs)

    @pytest.mark.parametrize("w, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_accumulator_type_boundaries(self, w, dtype):
        # counts are held in the narrowest unsigned type holding the largest
        # weight; two copies of a weight-w member meet w times at shift 0
        x = seq(300, range(w))
        seqs = [x, x, cyclic_shift(x, 7), seq(300, [5])]
        assert next(_profile_rows(seqs)).dtype == dtype
        first, second, peak, shift = assert_matches_profiles(seqs)
        assert (peak[0], shift[0]) == (w, 0)

    @pytest.mark.parametrize("k", [15, 16, 17, 33, 290])
    def test_block_edges(self, k):
        # members are added in 16 column blocks; these sizes put block
        # edges at, around and inside the family
        rng = np.random.default_rng(k)
        seqs = [seq(13, np.flatnonzero(rng.random(13) < 0.3)) for _ in range(k)]
        assert_matches_profiles(seqs)

    @pytest.mark.parametrize("family, g", [
        (pad_set(rs_cpc(RsCpcParams(5, 11, 3)), 2).sequences, 3),
        (tdma_set(7, 2).sequences, 3),
        ([seq(20, [0, 4, 6]), seq(20, [2, 8]), seq(20, [10, 12, 14, 18]),
          seq(20, [16])], 2),
    ])
    def test_common_divisor_of_positions(self, family, g):
        # every position and the period share g > 1, so members meet only at
        # shifts that are multiples of g
        _, _, _, shift = assert_matches_profiles(family)
        assert (shift % g == 0).all()

    def test_pairs_that_never_meet(self):
        # a weight-0 member meets nobody: peak 0, reported at shift 0
        empty = seq(9, [])
        seqs = [empty, seq(9, [4, 7]), empty, seq(9, [1, 5, 8]), empty]
        first, second, peak, shift = assert_matches_profiles(seqs)
        meets = (first % 2 == 1) & (second % 2 == 1)
        assert meets.sum() == 1 and peak[meets] == 2
        assert (peak[~meets] == 0).all() and (shift[~meets] == 0).all()

    @given(families())
    @settings(max_examples=100, deadline=None)
    def test_pair_peaks_is_the_peak_column(self, seqs):
        assert_peak_matrix(seqs)

    def test_pair_peaks_on_padded_rs_cpc(self):
        assert_peak_matrix(pad_set(rs_cpc(RsCpcParams(5, 11, 3)), 3).sequences)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_dtype_and_shape(self, k):
        out = pairwise_xcorr_peaks([seq(7, [0, 3])] * k)
        assert len(out) == 4
        for a in out:
            assert a.dtype == np.int64 and a.shape == (k * (k - 1) // 2,)

    def test_periods_must_match(self):
        with pytest.raises(ValueError):
            pairwise_xcorr_peaks([seq(5, [0]), seq(6, [0])])


class TestOrderSeparation:
    def test_cyclic_order(self):
        assert cyclic_order(seq(6, [0, 3])) == 3
        assert cyclic_order(seq(6, [0, 2, 4])) == 2
        assert cyclic_order(seq(5, [0, 1])) == 5
        assert cyclic_order(seq(4, [])) == 1

    @given(sequences())
    @settings(max_examples=60)
    def test_order_divides_period(self, x):
        assert x.period % cyclic_order(x) == 0

    def test_min_separation(self):
        assert min_separation(seq(15, [0, 5, 10])) == 5
        assert min_separation(seq(10, [0, 1])) == 1
        assert min_separation(seq(10, [0, 7])) == 3  # circular wrap
        with pytest.raises(ValueError):
            min_separation(seq(10, [0]))


class TestCrtIndexing:
    def test_map_values(self):
        assert tuple(crt_map(7, 3, 5)) == (1, 2)
        assert crt_unmap((1, 2), 3, 5) == 7

    def test_unmap_maps_arrays_element_wise(self):
        r, c = np.arange(11)[:, None], np.arange(13)
        got = crt_unmap((r, c), 11, 13)
        assert got.shape == (11, 13)
        assert got.tolist() == [[crt_unmap((a, b), 11, 13) for b in range(13)]
                                for a in range(11)]

    @given(st.integers(0, 10_000))
    def test_roundtrip(self, l):
        p, q = 11, 13
        l %= p * q
        assert crt_unmap(crt_map(l, p, q), p, q) == l

    def test_shift_is_diagonal_in_crt_coordinates(self):
        p, q = 3, 5
        for l in range(p * q):
            r, c = crt_map(l, p, q)
            r2, c2 = crt_map((l + 1) % (p * q), p, q)
            assert r2 == (r + 1) % p and c2 == (c + 1) % q

    def test_coprimality_required(self):
        with pytest.raises(ValueError):
            crt_map(0, 4, 6)


class TestSequenceSet:
    def make(self):
        return SequenceSet((seq(6, [0, 2]), seq(6, [1, 4])), ("a", "b"),
                           {"construction": "test"})

    def test_access(self):
        s = self.make()
        assert len(s) == 2
        assert s.period == 6
        assert s.get("b").ones == (1, 4)
        assert [lab for lab, _ in s] == ["a", "b"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SequenceSet((seq(6, [0]), seq(5, [0])), ("a", "b"))
        with pytest.raises(ValueError):
            SequenceSet((seq(6, [0]), seq(6, [1])), ("a", "a"))

    def test_bad_entry_is_named(self):
        # a bad member says which entry it is, however many the set holds
        for entries, message in [
                ([{"period": 5, "ones": [0]}, {"period": 5, "ones": [0, 1.7]}],
                 "sequence entry 1: ones position must be an integer, got 1.7"),
                ([{"period": 5, "ones": [0]}, "01101", {"period": 5, "ones": [4, 2]}],
                 "sequence entry 2: ones must be strictly increasing and unique"),
                ([{"bits": "01", "period": 3}],
                 "sequence entry 0: period does not match dense form length")]:
            with pytest.raises(ValueError) as err:
                SequenceSet.from_json({"sequences": entries})
            assert str(err.value) == message

    def test_select(self):
        s = self.make()
        t = s.select(["b"])
        assert t.labels == ("b",)
        assert t.meta["selected_from"] == "test"
        assert t.meta["construction"] == "test"

    def test_json_roundtrip(self, tmp_path):
        s = self.make()
        path = tmp_path / "set.json"
        s.save(str(path))
        t = SequenceSet.load(str(path))
        assert t.labels == s.labels
        assert t.sequences == s.sequences
        assert t.meta == s.meta
        # file is valid, deterministic JSON
        a = path.read_text()
        s.save(str(path))
        assert path.read_text() == a
        json.loads(a)


class TestRejectedArguments:
    @pytest.mark.parametrize("call, exc, message", [
        pytest.param(lambda: BinarySequence.from_string("0120"), ValueError,
                     "dense form must be a nonempty string of 0s and 1s", id="dense-digit"),
        pytest.param(lambda: BinarySequence.from_string(""), ValueError,
                     "dense form must be a nonempty string of 0s and 1s", id="dense-empty"),
        pytest.param(lambda: BinarySequence.from_json({"bits": "0101", "period": 5}),
                     ValueError, "period does not match dense form length",
                     id="bits-period"),
        pytest.param(lambda: hamming_xcorr(seq(3, [0]), seq(4, [0]), 0), ValueError,
                     "sequences must share a period", id="hamming_xcorr-period"),
        pytest.param(lambda: xcorr_profile(seq(3, [0]), seq(4, [0])), ValueError,
                     "sequences must share a period", id="xcorr_profile-period"),
        pytest.param(lambda: cyclic_min_distance([seq(3, [0])]), ValueError,
                     "need at least two sequences", id="min_distance-one"),
        pytest.param(lambda: SequenceSet((seq(3, [0]),), ("a", "b")), ValueError,
                     "one label per sequence required", id="set-labels"),
        pytest.param(lambda: SequenceSet((), ()), ValueError, "empty sequence set",
                     id="set-empty"),
        pytest.param(lambda: SequenceSet((seq(3, [0]),), ("a",)).get("b"), KeyError,
                     "'b'", id="set-get"),
        pytest.param(lambda: SequenceSet((seq(3, [0]),), ("a",)).select(["b", "a", "c"]),
                     ValueError, "select label(s) not in the set: 'b', 'c'",
                     id="set-select"),
    ])
    def test_message(self, call, exc, message):
        with pytest.raises(exc) as err:
            call()
        assert type(err.value) is exc
        assert str(err.value) == message
