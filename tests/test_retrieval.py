import numpy as np
import pytest

import oracles
from zsih import retrieval
from zsih.retrieval import (
    CodeMatrix,
    binarize,
    evaluate,
    format_report,
    hamming_rank,
    load_codes,
    pack_bits,
    rank_rows,
    save_codes,
    write_pr_dump,
)
from zsih.data import FormatError


def random_code_matrix(rng, n, m, n_classes, modality="image"):
    bits = rng.integers(0, 2, size=(n, m)).astype(np.uint8)
    labels = rng.integers(0, n_classes, size=n).astype(np.uint32)
    return CodeMatrix(codes=pack_bits(bits), labels=labels, n_bits=m,
                      modality=modality), bits


class TestBinarize:
    def test_threshold(self):
        cm = binarize(np.array([[0.7, 0.3, 0.5, 0.49999]]), [0])
        np.testing.assert_array_equal(cm.bits(), [[1, 0, 1, 0]])

    def test_all_half_row_gives_all_ones(self):
        cm = binarize(np.full((1, 12), 0.5), [3])
        np.testing.assert_array_equal(cm.bits(), np.ones((1, 12)))

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binarize(np.array([[1.2, 0.5]]), [0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binarize(np.array([[-0.1, 0.5]]), [0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binarize(np.array([[np.nan, 0.7]]), [0])

    def test_no_rows(self):
        cm = binarize(np.zeros((0, 12)), [])
        assert cm.codes.shape == (0, 2) and cm.n_bits == 12

    def test_requires_matrix(self):
        with pytest.raises(ValueError, match=r"\[N, M\]"):
            binarize(np.array([0.7, 0.3]), [0])

    def test_lsb_first_packing(self):
        cm = binarize(np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                 0.0, 1.0]]), [0])
        assert cm.codes[0, 0] == 1    # bit 0 -> least significant bit
        assert cm.codes[0, 1] == 2    # bit 9 -> second bit of byte 1

    def test_labels_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            binarize(np.full((2, 4), 0.3), [0])


def distances(row, packed, m):
    """The distances ``rank_rows`` yields for one packed query row against
    packed gallery rows of ``m`` bits."""
    gallery = CodeMatrix(packed, np.zeros(len(packed), dtype=np.uint32), m)
    return next(rank_rows(np.asarray(row)[None], m, gallery))[0]


class TestHammingRank:
    def test_exact_match_ranked_first(self, rng):
        gallery, bits = random_code_matrix(rng, 20, 16, 4)
        order = hamming_rank(bits[7], gallery)
        assert order[0] == np.flatnonzero((bits == bits[7]).all(axis=1))[0]

    def test_hand_distances(self):
        gallery_bits = np.array(
            [[1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)
        gallery = CodeMatrix(codes=pack_bits(gallery_bits),
                             labels=np.zeros(3, dtype=np.uint32), n_bits=4)
        order = hamming_rank(np.zeros(4, dtype=np.uint8), gallery)
        assert order.tolist() == [1, 2, 0]  # distances 1, 2, 4

    def test_ties_break_by_gallery_index(self):
        bits = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], dtype=np.uint8)
        gallery = CodeMatrix(codes=pack_bits(bits),
                             labels=np.zeros(3, dtype=np.uint32), n_bits=4)
        order = hamming_rank(np.zeros(4, dtype=np.uint8), gallery)
        assert order.tolist() == [2, 0, 1]

    def test_packed_distance_equals_naive_popcount(self, rng):
        m = 37  # not byte aligned
        a = rng.integers(0, 2, size=(10_000, m)).astype(np.uint8)
        b = rng.integers(0, 2, size=(10_000, m)).astype(np.uint8)
        packed_b = pack_bits(b)
        for i in range(0, 10_000, 250):
            fast = distances(pack_bits(a[i]), packed_b[i:i + 250], m)
            naive = np.array([oracles.naive_hamming(a[i], b[j])
                              for j in range(i, i + 250)])
            np.testing.assert_array_equal(fast, naive)

    @pytest.mark.parametrize("m", [1, 7, 8, 16, 24, 37, 64, 96, 128, 300])
    def test_distances_equal_naive_at_every_word_width(self, rng, m):
        q = rng.integers(0, 2, size=(6, m)).astype(np.uint8)
        g = rng.integers(0, 2, size=(40, m)).astype(np.uint8)
        g[:3] = q[:3]        # distance 0
        g[3:6] = 1 - q[:3]   # distance m
        packed_g = pack_bits(g)
        for row in q:
            fast = distances(pack_bits(row), packed_g, m)
            assert fast.dtype == (np.uint8 if packed_g.shape[1] * 8 <= 255
                                  else np.uint16)
            naive = [oracles.naive_hamming(row, b) for b in g]
            np.testing.assert_array_equal(fast, naive)

    def test_distance_symmetry_and_identity(self, rng):
        bits = rng.integers(0, 2, size=(50, 24)).astype(np.uint8)
        packed = pack_bits(bits)
        for i in range(0, 50, 7):
            d_ab = distances(packed[i], packed, 24)
            assert d_ab[i] == 0
            for j in range(0, 50, 11):
                d_ba = distances(packed[j], packed, 24)
                assert d_ab[j] == d_ba[i]

    def test_length_mismatch(self, rng):
        gallery, _ = random_code_matrix(rng, 5, 16, 2)
        with pytest.raises(ValueError, match="bits"):
            hamming_rank(np.zeros(8, dtype=np.uint8), gallery)
        with pytest.raises(ValueError, match="vector"):
            hamming_rank(np.zeros((1, 16), dtype=np.uint8), gallery)

    def test_empty_gallery_rejected(self):
        gallery = CodeMatrix(np.zeros((0, 1), dtype=np.uint8), [], 8)
        with pytest.raises(ValueError, match="empty gallery"):
            hamming_rank(np.zeros(8, dtype=np.uint8), gallery)


def average_precision(ranked_labels, query_label):
    """The AP ``evaluate`` reports for one query over a gallery that ranks
    in index order: every code is equal, so every distance ties at 0."""
    labels = np.asarray(ranked_labels, dtype=np.uint32)
    gallery = CodeMatrix(np.zeros((labels.size, 1), np.uint8), labels, 8, "image")
    query = CodeMatrix(np.zeros((1, 1), np.uint8), [query_label], 8, "sketch")
    ap = float(evaluate(query, gallery, ks=(1,)).per_query_ap[0])
    assert ap == oracles.naive_average_precision(labels, query_label)
    return ap


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        assert average_precision([5, 1, 2], 5) == 1.0

    def test_relevant_at_ranks_one_and_three(self):
        ap = average_precision([7, 0, 7], 7)
        assert abs(ap - 5.0 / 6.0) < 1e-15

    def test_all_relevant(self):
        assert average_precision([3, 3, 3, 3], 3) == 1.0

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError, match="lacked relevant"):
            average_precision([1, 2, 3], 9)

    def test_matches_oracle_on_random_rankings(self, rng):
        for _ in range(200):
            labels = rng.integers(0, 3, size=30)
            query = int(rng.integers(0, 3))
            if not np.any(labels == query):
                continue
            average_precision(labels, query)


def assert_report_equals_oracle(q_bits, q_labels, g_bits, g_labels, ks):
    """Every RetrievalReport field equal to the naive oracle's, exactly."""
    m = q_bits.shape[1]
    queries = CodeMatrix(pack_bits(q_bits), q_labels, m, "sketch")
    gallery = CodeMatrix(pack_bits(g_bits), g_labels, m, "image")
    report = evaluate(queries, gallery, ks=ks)
    ref = oracles.naive_evaluate(q_bits, q_labels, g_bits, g_labels, ks)
    assert report.map_all == ref["map_all"]
    np.testing.assert_array_equal(report.per_query_ap, ref["per_query_ap"])
    assert report.precision_at == ref["precision_at"]
    assert report.pr_curve == ref["pr_curve"]
    assert report.pr_raw == ref["pr_raw"]
    assert report.excluded_queries == ref["excluded"]
    return report


def _query_by_query_raw(q_bits, q_labels, g_bits, g_labels):
    """The raw curve as per-query precision and recall vectors added query
    by query, then averaged: the same values as the counts in another
    order of float adds."""
    ranks = np.arange(1, g_labels.size + 1)
    prec_sum = np.zeros(g_labels.size)
    rec_sum = np.zeros(g_labels.size)
    n_eval = 0
    for row, label in zip(q_bits, q_labels):
        order = np.argsort((g_bits != row).sum(axis=1), kind="stable")
        cum = (g_labels[order] == label).cumsum()
        if cum[-1]:
            prec_sum += cum / ranks
            rec_sum += cum / cum[-1]
            n_eval += 1
    return list(zip((rec_sum / n_eval).tolist(), (prec_sum / n_eval).tolist()))


class TestEvaluate:
    def test_identical_codes_unique_labels_give_perfect_map(self, rng):
        bits = rng.integers(0, 2, size=(8, 16)).astype(np.uint8)
        labels = np.arange(8, dtype=np.uint32)
        queries = CodeMatrix(pack_bits(bits), labels, 16, "sketch")
        gallery = CodeMatrix(pack_bits(bits), labels, 16, "image")
        report = evaluate(queries, gallery, ks=(1,))
        assert report.map_all == 1.0
        assert report.precision_at[1] == 1.0

    def test_chance_level_with_balanced_binary_labels(self, rng):
        n = 4000
        bits = rng.integers(0, 2, size=(n, 32)).astype(np.uint8)
        labels = np.tile([0, 1], n // 2).astype(np.uint32)
        qbits = rng.integers(0, 2, size=(100, 32)).astype(np.uint8)
        qlabels = rng.integers(0, 2, size=100).astype(np.uint32)
        queries = CodeMatrix(pack_bits(qbits), qlabels, 32, "sketch")
        gallery = CodeMatrix(pack_bits(bits), labels, 32, "image")
        report = evaluate(queries, gallery, ks=(10,))
        assert abs(report.map_all - 0.5) < 0.05

    def test_fast_path_equals_naive_oracle_exactly(self, rng):
        for trial in range(5):
            q_bits = rng.integers(0, 2, size=(20, 19)).astype(np.uint8)
            g_bits = rng.integers(0, 2, size=(120, 19)).astype(np.uint8)
            q_labels = rng.integers(0, 4, size=20).astype(np.uint32)
            g_labels = rng.integers(0, 4, size=120).astype(np.uint32)
            assert_report_equals_oracle(q_bits, q_labels, g_bits, g_labels,
                                        (1, 5, 50, 200))

    @pytest.mark.parametrize("m", [5, 13, 32, 96, 300])
    def test_equals_naive_oracle_exactly_at_other_code_lengths(self, rng, m):
        q_bits = rng.integers(0, 2, size=(15, m)).astype(np.uint8)
        g_bits = rng.integers(0, 2, size=(90, m)).astype(np.uint8)
        g_bits[::7] = q_bits[0]  # ties at distance 0
        q_labels = rng.integers(0, 5, size=15).astype(np.uint32)
        g_labels = rng.integers(0, 4, size=90).astype(np.uint32)
        assert_report_equals_oracle(q_bits, q_labels, g_bits, g_labels, (1, 10, 100))

    def test_every_gallery_item_relevant(self, rng):
        q_bits = rng.integers(0, 2, size=(6, 11)).astype(np.uint8)
        g_bits = rng.integers(0, 2, size=(25, 11)).astype(np.uint8)
        report = assert_report_equals_oracle(
            q_bits, np.full(6, 3, dtype=np.uint32), g_bits,
            np.full(25, 3, dtype=np.uint32), (1, 10, 25))
        assert report.map_all == 1.0
        assert report.pr_raw[-1] == (1.0, 1.0)

    def test_raw_curve_counts_hits_per_r(self, rng):
        # classes of six sizes, so six distinct R, and queries of two classes
        # absent from the gallery; at 420 ranks and 72 queries adding per-query
        # float curves query by query gives other last bits than the counts
        sizes = (20, 35, 50, 80, 110, 125)
        g_labels = rng.permutation(np.repeat(np.arange(6), sizes)).astype(np.uint32)
        g_bits = rng.integers(0, 2, size=(g_labels.size, 12)).astype(np.uint8)
        q_bits = rng.integers(0, 2, size=(72, 12)).astype(np.uint8)
        q_labels = (np.arange(72) % 8).astype(np.uint32)
        report = assert_report_equals_oracle(q_bits, q_labels, g_bits, g_labels,
                                             (1, 10, 100))
        assert report.excluded_queries == 18
        # at the last rank each of the 9 queries per class has seen its R hits
        assert report.pr_raw[-1] == (1.0, 9 * sum(sizes) / g_labels.size / 54)
        assert report.pr_raw != _query_by_query_raw(q_bits, q_labels, g_bits, g_labels)

    def test_one_relevant_item_ranked_last(self, rng):
        m = 16
        g_bits = rng.integers(0, 2, size=(40, m)).astype(np.uint8)
        g_bits[:, 0] = 0
        g_bits[0] = 1                      # the only relevant item: distance m
        g_labels = np.ones(40, dtype=np.uint32)
        g_labels[0] = 0
        q_bits = np.zeros((3, m), dtype=np.uint8)
        report = assert_report_equals_oracle(
            q_bits, np.zeros(3, dtype=np.uint32), g_bits, g_labels, (1, 39, 40))
        assert report.per_query_ap.tolist() == [1.0 / 40] * 3
        assert report.precision_at[39] == 0.0

    def test_k_larger_than_gallery(self, rng):
        q_bits = rng.integers(0, 2, size=(9, 7)).astype(np.uint8)
        g_bits = rng.integers(0, 2, size=(8, 7)).astype(np.uint8)
        report = assert_report_equals_oracle(
            q_bits, rng.integers(0, 3, size=9).astype(np.uint32), g_bits,
            rng.integers(0, 3, size=8).astype(np.uint32), (1, 8, 9, 1000))
        assert report.precision_at[1000] < report.precision_at[8]

    def test_single_item_gallery(self, rng):
        q_bits = rng.integers(0, 2, size=(5, 9)).astype(np.uint8)
        g_bits = rng.integers(0, 2, size=(1, 9)).astype(np.uint8)
        report = assert_report_equals_oracle(
            q_bits, np.array([2, 2, 1, 2, 2], dtype=np.uint32), g_bits,
            np.array([2], dtype=np.uint32), (1, 10))
        assert report.excluded_queries == 1
        assert report.map_all == 1.0

    def test_ties_across_the_relevance_boundary(self, rng):
        m = 12
        blocks = rng.integers(0, 2, size=(4, m)).astype(np.uint8)
        # 4 distinct codes, each held by 15 items of mixed labels, so every
        # distance ties relevant and non-relevant items
        g_bits = np.repeat(blocks, 15, axis=0)
        g_labels = rng.integers(0, 3, size=60).astype(np.uint32)
        q_bits = np.vstack([blocks, rng.integers(0, 2, size=(6, m))]).astype(np.uint8)
        q_labels = rng.integers(0, 4, size=10).astype(np.uint32)
        assert_report_equals_oracle(q_bits, q_labels, g_bits, g_labels, (1, 15, 16, 60))

    def test_every_query_excluded_rejected(self, rng):
        gallery, _ = random_code_matrix(rng, 10, 8, 2)
        q_bits = rng.integers(0, 2, size=(3, 8)).astype(np.uint8)
        queries = CodeMatrix(pack_bits(q_bits), np.full(3, 7, dtype=np.uint32),
                             8, "sketch")
        with pytest.raises(ValueError, match="every query lacked"):
            evaluate(queries, gallery, ks=(1,))

    def test_gallery_permutation_invariance_for_unique_distances(self, rng):
        m = 24
        g_bits = rng.integers(0, 2, size=(15, m)).astype(np.uint8)
        g_labels = rng.integers(0, 3, size=15).astype(np.uint32)
        q_bits = g_bits[4]
        # ensure unique distances for this query
        dists = (g_bits != q_bits[None, :]).sum(axis=1)
        if len(set(dists.tolist())) != 15:
            g_bits = g_bits[np.argsort(dists, kind="stable")]
            g_labels = g_labels[np.argsort(dists, kind="stable")]
            keep = []
            seen = set()
            for i, d in enumerate(sorted(dists.tolist())):
                if d not in seen:
                    keep.append(i)
                    seen.add(d)
            g_bits, g_labels = g_bits[keep], g_labels[keep]
        queries = CodeMatrix(pack_bits(q_bits[None, :]),
                             np.array([g_labels[min(4, len(g_labels) - 1)]],
                                      dtype=np.uint32), m, "sketch")
        gallery = CodeMatrix(pack_bits(g_bits), g_labels, m, "image")
        base = evaluate(queries, gallery, ks=(1,))
        perm = rng.permutation(len(g_labels))
        shuffled = CodeMatrix(pack_bits(g_bits[perm]), g_labels[perm], m, "image")
        again = evaluate(queries, shuffled, ks=(1,))
        assert base.map_all == again.map_all

    def test_precision_monotone_when_front_loaded(self):
        # gallery ranked with all relevant items first for its single query
        g_bits = np.vstack([np.zeros((5, 8)), np.ones((10, 8))]).astype(np.uint8)
        g_labels = np.array([1] * 5 + [0] * 10, dtype=np.uint32)
        queries = CodeMatrix(pack_bits(np.zeros((1, 8), dtype=np.uint8)),
                             np.array([1], dtype=np.uint32), 8, "sketch")
        gallery = CodeMatrix(pack_bits(g_bits), g_labels, 8, "image")
        ks = (1, 2, 5, 8, 15)
        report = evaluate(queries, gallery, ks=ks)
        values = [report.precision_at[k] for k in ks]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_queries_without_relevant_items_are_excluded(self, rng):
        gallery, _ = random_code_matrix(rng, 10, 8, 2)
        q_bits = rng.integers(0, 2, size=(3, 8)).astype(np.uint8)
        q_labels = np.array([0, 1, 99], dtype=np.uint32)  # label 99 absent
        queries = CodeMatrix(pack_bits(q_bits), q_labels, 8, "sketch")
        report = evaluate(queries, gallery, ks=(1,))
        assert report.excluded_queries == 1
        assert len(report.per_query_ap) == 2
        assert report.map_all == float(np.mean(report.per_query_ap))

    def test_excluded_queries_are_never_ranked(self, rng, monkeypatch):
        gallery, _ = random_code_matrix(rng, 20, 16, 3)
        q_bits = rng.integers(0, 2, size=(7, 16)).astype(np.uint8)
        # labels 5 and 99 are absent from the gallery's 0, 1 and 2
        q_labels = np.array([5, 0, 99, 1, 2, 5, 0], dtype=np.uint32)
        queries = CodeMatrix(pack_bits(q_bits), q_labels, 16, "sketch")
        scans = []
        scan = retrieval._scan

        def counting_scan(row, gallery_words):
            scans.append(row)
            return scan(row, gallery_words)

        monkeypatch.setattr(retrieval, "_scan", counting_scan)
        report = evaluate(queries, gallery, ks=(1, 5))
        assert report.excluded_queries == 3
        assert len(scans) == len(report.per_query_ap) == 4

    def test_empty_gallery_rejected(self, rng):
        queries, _ = random_code_matrix(rng, 2, 8, 2)
        gallery = CodeMatrix(np.zeros((0, 1), dtype=np.uint8),
                             np.zeros(0, dtype=np.uint32), 8, "image")
        with pytest.raises(ValueError, match="empty gallery"):
            evaluate(queries, gallery, ks=(1,))

    @pytest.mark.parametrize("k", [0, -1])
    def test_precision_at_k_below_one_rejected(self, rng, k):
        codes, _ = random_code_matrix(rng, 3, 3, 2)
        with pytest.raises(ValueError, match=f"K = {k}"):
            evaluate(codes, codes, ks=(1, k))

    def test_code_length_mismatch_names_both(self, rng):
        queries, _ = random_code_matrix(rng, 2, 8, 2)
        gallery, _ = random_code_matrix(rng, 2, 16, 2)
        with pytest.raises(ValueError, match="8.*16"):
            evaluate(queries, gallery, ks=(1,))

    def test_report_format(self, rng, tmp_path):
        gallery, bits = random_code_matrix(rng, 12, 8, 2)
        queries = CodeMatrix(gallery.codes.copy(), gallery.labels.copy(), 8, "sketch")
        report = evaluate(queries, gallery, ks=(1, 100))
        text = format_report(report)
        assert "mAP@all\t" in text
        assert "precision@100\t" in text
        dump = tmp_path / "pr.tsv"
        write_pr_dump(report, dump)
        lines = dump.read_text().splitlines()
        assert lines[0] == "kind\trecall\tprecision"
        assert sum(1 for l in lines if l.startswith("interp\t")) == 11
        assert sum(1 for l in lines if l.startswith("raw\t")) == 12


def _write_pr_dump_line_by_line(report, path):
    """The P-R dump one formatted line at a time through a text stream."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("kind\trecall\tprecision\n")
        for recall, precision in report.pr_curve:
            f.write(f"interp\t{recall!r}\t{precision!r}\n")
        for recall, precision in report.pr_raw:
            f.write(f"raw\t{recall!r}\t{precision!r}\n")


class TestPrDump:
    def test_bytes_equal_a_line_by_line_writer(self, rng, tmp_path):
        queries, _ = random_code_matrix(rng, 40, 13, 5, "sketch")
        gallery, _ = random_code_matrix(rng, 300, 13, 4)
        report = evaluate(queries, gallery, ks=(1,))
        assert report.excluded_queries > 0
        write_pr_dump(report, tmp_path / "pr.tsv")
        _write_pr_dump_line_by_line(report, tmp_path / "ref.tsv")
        assert (tmp_path / "pr.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()


class TestCodeFiles:
    def test_zero_bit_codes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least 1 bit"):
            CodeMatrix(np.zeros((2, 0), dtype=np.uint8), [0, 1], 0)
        with pytest.raises(ValueError, match="at least 1 bit"):
            binarize(np.zeros((2, 0)), [0, 1])
        cm = CodeMatrix(np.zeros((2, 1), dtype=np.uint8), [0, 1], 8)
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        raw = bytearray(path.read_bytes())
        # the u32 bit count follows the magic, the version and the u64 count
        raw[14:18] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="at least 1 bit"):
            load_codes(path)

    def test_round_trip_byte_exact(self, rng, tmp_path):
        cm, _ = random_code_matrix(rng, 25, 19, 5, modality="sketch")
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        raw = path.read_bytes()
        loaded = load_codes(path)
        save_codes(loaded, path)
        assert path.read_bytes() == raw
        assert loaded.n_bits == 19
        assert loaded.modality == "sketch"
        np.testing.assert_array_equal(loaded.bits(), cm.bits())
        np.testing.assert_array_equal(loaded.labels, cm.labels)

    def test_label_trailer_integrity(self, rng, tmp_path):
        cm, _ = random_code_matrix(rng, 4, 8, 2)
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # corrupt the echoed label trailer
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="trailer"):
            load_codes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "codes.zscb"
        path.write_bytes(b"WHAT" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_codes(path)

    def test_truncation(self, rng, tmp_path):
        cm, _ = random_code_matrix(rng, 4, 8, 2)
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_codes(path)

    def test_oversized_count_rejected_before_allocating(self, rng, tmp_path):
        cm, _ = random_code_matrix(rng, 4, 8, 2)
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        raw = bytearray(path.read_bytes())
        raw[6:14] = (2 ** 40).to_bytes(8, "little")  # the header's u64 count
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            load_codes(path)

    def test_truncation_at_every_offset(self, rng, tmp_path):
        cm, _ = random_code_matrix(rng, 3, 13, 2)
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                load_codes(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        cm, _ = random_code_matrix(rng, 3, 13, 2)
        path = tmp_path / "codes.zscb"
        save_codes(cm, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_codes(path)
