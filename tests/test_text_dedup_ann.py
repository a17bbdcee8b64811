"""Text analysis, near-dup detection, ANN, multimodal plumbing."""

import numpy as np
import pandas as pd
import pytest

from associationabacminer_ray.stages.dedup import (
    hamming64,
    lsh_bands,
    minhash_signatures,
    shingle_set_jaccard,
    simhash_signatures,
    word_ngram_jaccard,
)
from associationabacminer_ray.stages.text import Fingerprint, LangId, TokenStats

SF = "/root/testdata/sf0.001"


class TestTokenStats:
    def test_edge_cases(self):
        df = pd.DataFrame({"text": ["", "one two three", "hi!!!", None, "a" * 600]})
        out = TokenStats()(df)
        assert out["n_tokens"].tolist() == [0, 3, 1, 0, 1]
        assert out["n_chars_computed"].tolist() == [0, 13, 5, 0, 600]
        assert out.loc[2, "punct_ratio"] == pytest.approx(3 / 5)
        assert ((out["quality_score"] >= 0) & (out["quality_score"] <= 1)).all()
        # quality ranks a real sentence above noise
        df2 = TokenStats()(pd.DataFrame({"text": [
            "the cat sat on the mat and looked at the dog for a while",
            "!!!! ???? ;;;"]}))
        assert df2.loc[0, "quality_score"] > df2.loc[1, "quality_score"]


class TestLangId:
    def test_vectorized_parity_with_per_doc(self):
        """The Arrow-vectorized predict (per-(lang,word) RE2 presence
        sums) must equal the per-doc token-set reference on adversarial
        inputs: boundary cases (digits/punct adjacent to stopwords),
        multi-language mixes, ties, accents, empty/None."""
        import pyarrow as pa

        rng = np.random.default_rng(11)
        vocab = (["the", "and", "of", "der", "und", "die", "el", "la",
                  "le", "est", "de", "que", "un", "en", "is"]
                 + ["xx", "the1", "1the", "thee", "a-the", "the.", ".de",
                    "ZU", "Mit", "qué", "für", "naïve"])
        texts = [" ".join(rng.choice(vocab, int(n)))
                 for n in rng.integers(0, 30, 120)]
        texts += ["", None, "the", "the the der der", "der1 el? la!",
                  "de de de", "und,la;est", "THE AND OF", "äöü éè"]
        stage = LangId()
        preds_vec = stage._predict_arrow(
            pa.compute.fill_null(pa.array(texts, pa.string()), ""))
        preds_ref = [stage._predict_one(t or "") for t in texts]
        assert preds_vec.to_pylist() == preds_ref

    def test_stopword_alternation_parity(self):
        """TokenStats' single-alternation stopword count must equal the
        per-word \\b-count sum (distinct words occupy disjoint maximal
        word runs, so the non-overlapping alternation count is exact)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        rng = np.random.default_rng(13)
        vocab = ["the", "and", "of", "to", "a", "in", "is", "that",
                 "for", "with", "a", "aa", "the1", "xthe", "a_a",
                 "a.a", "in-to", "??", "IS"]
        texts = [" ".join(rng.choice(vocab, int(n)))
                 for n in rng.integers(0, 40, 100)]
        texts += ["a a a", "athata", "that.that,that", ""]
        stage = TokenStats()
        lower = pc.utf8_lower(pa.array(texts, pa.string()))
        got = pc.count_substring_regex(lower, stage.stop_pat).to_numpy()
        want = sum(pc.count_substring_regex(lower, rf"\b{w}\b").to_numpy()
                   for w in sorted(stage.stop))
        assert np.array_equal(got, want)

    def test_profiles(self):
        df = pd.DataFrame({"text": [
            "the house and the garden of a friend is that way",
            "der Hund und die Katze ist mit einem Ball zu Hause",
            "el perro y la casa es que un gato en la calle",
            "le chien est dans la maison pour les amis",
            "",
        ]})
        out = LangId()(df)
        assert out["lang_pred"].tolist() == ["en", "de", "es", "fr", "unknown"]


class TestFingerprint:
    def test_md5_and_rolling(self):
        import hashlib

        df = pd.DataFrame({"text": ["hello world", "hello world", "other", ""]})
        out = Fingerprint()(df)
        assert out.loc[0, "fp"] == hashlib.md5(b"hello world").hexdigest()
        assert out.loc[0, "fp"] == out.loc[1, "fp"] != out.loc[2, "fp"]
        assert out.loc[0, "rolling_fp"] == out.loc[1, "rolling_fp"]
        assert out.loc[3, "rolling_fp"] == 0
        # order sensitivity
        out2 = Fingerprint()(pd.DataFrame({"text": ["world hello"]}))
        assert out2.loc[0, "rolling_fp"] != out.loc[0, "rolling_fp"]


class TestMinHash:
    def test_signature_similarity_tracks_jaccard(self):
        a = "the quick brown fox jumps over the lazy dog in the park"
        b = "the quick brown fox jumps over the lazy cat in the park"
        c = "completely different content about database query engines"
        sig = minhash_signatures(pd.Series([a, b, c]), num_perm=128)
        est_ab = (sig[0] == sig[1]).mean()
        est_ac = (sig[0] == sig[2]).mean()
        true_ab = shingle_set_jaccard(a, b)
        assert abs(est_ab - true_ab) < 0.15
        assert est_ac < 0.1 < est_ab

    def test_lsh_bands_identical_docs_collide(self):
        sig = minhash_signatures(pd.Series(["same text here"] * 2 + ["nope"]),
                                 num_perm=64)
        bands = lsh_bands(sig, num_bands=16)
        assert (bands[0] == bands[1]).all()
        assert not (bands[0] == bands[2]).all()

    def test_ngram_jaccard(self):
        assert word_ngram_jaccard("a b c d", "a b c d") == 1.0
        assert word_ngram_jaccard("a b c d", "x y z w") == 0.0


class TestSimHash:
    def test_near_docs_close_in_hamming(self):
        a = "the quick brown fox jumps over the lazy dog in the park today"
        b = a.replace("dog", "cat")
        c = "entirely unrelated words about spark shuffle partitions"
        sig = simhash_signatures(pd.Series([a, b, c]))
        d_ab = hamming64(sig[:1], sig[1:2])[0]
        d_ac = hamming64(sig[:1], sig[2:3])[0]
        assert d_ab < d_ac
        assert d_ab <= 12

    def test_simhash_split_kernel_parity(self):
        """``split_token_hashes`` (byte-mask, zero PyObject) must equal
        the former per-doc ``(t or '').split() or ['']`` loop hash-for-
        hash — including \\v (in str.split but not RE2 \\S), empty and
        whitespace-only docs, and None."""
        from associationabacminer_ray.functions.hashing import (
            hash_strings_poly,
            split_token_hashes,
        )

        rng = np.random.default_rng(11)
        words = ["aa", "b", "ccc", "dddd", "e"]
        texts = [" ".join(rng.choice(words, int(n)))
                 for n in rng.integers(0, 30, 30)]
        texts += ["", "   ", "\t\n\x0b\x0c\r ", "a\x0bb", "x\ty z",
                  None, "solo"]
        ser = pd.Series(texts).fillna("")
        h, off = split_token_hashes(ser)
        ref_toks = [((t or "").split() or [""]) for t in ser]
        flat = [t for ts in ref_toks for t in ts]
        ref = hash_strings_poly(np.asarray(flat, dtype=object))
        assert np.array_equal(h, ref)
        assert off.tolist() == np.cumsum(
            [0] + [len(ts) for ts in ref_toks]).tolist()
        # arrow input path must agree bit-for-bit
        import pyarrow as pa
        h2, off2 = split_token_hashes(pa.array(texts, pa.string()))
        assert np.array_equal(h, h2) and np.array_equal(off, off2)


class TestPipelines:
    def test_minhash_dups_finds_planted_pair(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.pipelines.text_pipelines import (
            minhash_near_dups,
        )

        base = pd.read_parquet(f"{SF}/documents.parquet")
        planted = base.copy()
        # plant a near-duplicate of doc 0 with a new id
        dup = base.iloc[[0]].copy()
        dup["doc_id"] = 99_999
        dup["text"] = dup["text"].str.replace("the", "teh", n=1)
        planted = pd.concat([planted, dup], ignore_index=True)
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(pa.Table.from_pandas(planted, preserve_index=False),
                       str(d / "documents.parquet"))
        out = minhash_near_dups(str(d), threshold=0.5)
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (0, 99_999) in pairs
        assert (out["jaccard"] >= 0.5).all()

    def test_planted_minhash_and_ngram_recover_closed_form(self, ray_session):
        """q_minhash_dups / q_ngram_dups (planted-recovery gate form)
        must return exactly the closed-form plant list — the same rule
        the DuckDB oracle states."""
        from associationabacminer_ray.pipelines.text_pipelines import (
            PLANT_TEXT_EVERY,
            PLANT_TEXT_ID_OFFSET,
            _plant_eligible,
            q_minhash_dups,
            q_ngram_dups,
        )

        docs = pd.read_parquet(f"{SF}/documents.parquet")
        eligible = docs[
            (docs["doc_id"] % PLANT_TEXT_EVERY == 0)
            & docs["text"].fillna("").map(_plant_eligible)]["doc_id"].sort_values()
        want = pd.DataFrame({
            "id_a": eligible.to_numpy(dtype=np.int64),
            "id_b": (eligible + PLANT_TEXT_ID_OFFSET).to_numpy(dtype=np.int64),
        }).reset_index(drop=True)
        assert len(want) > 0
        for fn in (q_minhash_dups, q_ngram_dups):
            got = fn(SF).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want)

    def test_distributed_verify_matches_driver_gather(self, ray_session):
        """Regression for the round-2 rework: verify_pairs_distributed
        must produce exactly what the round-1 driver-side text gather
        produced — same pairs, same Jaccard values."""
        import ray.data as rd

        from associationabacminer_ray.pipelines.text_pipelines import (
            minhash_candidate_pairs,
        )
        from associationabacminer_ray.stages.dedup import (
            shingle_set_jaccard,
            verify_pairs_distributed,
        )

        cand = minhash_candidate_pairs(SF)
        got = (verify_pairs_distributed(
            rd.read_parquet(f"{SF}/documents.parquet",
                            columns=["doc_id", "text"]),
            cand, shingle_set_jaccard, "jaccard")
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
        # driver-side recomputation (the round-1 implementation)
        texts = pd.read_parquet(f"{SF}/documents.parquet").set_index(
            "doc_id")["text"]
        want = cand.assign(jaccard=[
            shingle_set_jaccard(texts[a], texts[b])
            for a, b in zip(cand["id_a"], cand["id_b"])
        ]).sort_values(["id_a", "id_b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_distributed_verify_planted_dups_10x(self, ray_session, tmp_path):
        """10× corpus with 20 planted near-duplicates: every planted
        pair must survive candidate generation + distributed verify."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.pipelines.text_pipelines import (
            minhash_near_dups,
        )

        base = pd.read_parquet(f"{SF}/documents.parquet")
        blocks = []
        for rep in range(10):
            b = base.copy()
            b["doc_id"] = b["doc_id"] + rep * 10_000
            # make repeated copies distinct texts (suffix per rep)
            b["text"] = b["text"] + f" rep{rep} marker{rep}"
            blocks.append(b)
        corpus = pd.concat(blocks, ignore_index=True)
        dups = corpus.iloc[:20].copy()
        dups["doc_id"] = dups["doc_id"] + 500_000
        dups["text"] = dups["text"].str.replace("the", "teh", n=1)
        corpus = pd.concat([corpus, dups], ignore_index=True)
        d = tmp_path / "docs10x"
        d.mkdir()
        pq.write_table(pa.Table.from_pandas(corpus, preserve_index=False),
                       str(d / "documents.parquet"))
        out = minhash_near_dups(str(d), threshold=0.5)
        pairs = set(zip(out["id_a"], out["id_b"]))
        for i in range(20):
            src = int(corpus.iloc[i]["doc_id"])
            assert (src, src + 500_000) in pairs, f"missed planted pair {src}"

    def test_simhash_dups_finds_planted_pair(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.pipelines.text_pipelines import (
            q_simhash_dups,
        )
        from associationabacminer_ray.stages.dedup import simhash_signatures

        base = pd.read_parquet(f"{SF}/documents.parquet")
        dup = base.iloc[[3]].copy()
        dup["doc_id"] = 77_777
        # swap one word — SimHash of near-identical token bags stays
        # within a few bits
        dup["text"] = dup["text"].str.replace("the", "thex", n=1)
        planted = pd.concat([base, dup], ignore_index=True)
        d = tmp_path / "docs_sh"
        d.mkdir()
        pq.write_table(pa.Table.from_pandas(planted, preserve_index=False),
                       str(d / "documents.parquet"))
        sig = simhash_signatures(pd.Series([base.iloc[3]["text"],
                                            dup.iloc[0]["text"]]))
        from associationabacminer_ray.stages.dedup import hamming64
        hd = int(hamming64(sig[:1], sig[1:])[0])
        # the 4-band scheme only guarantees recall for Hamming ≤ 3; if a
        # corpus/tokenizer change pushes the planted pair beyond that,
        # fail HERE with a clear message instead of silently missing it
        assert hd <= 3, f"planted pair drifted to Hamming {hd}"
        out = q_simhash_dups(str(d), max_hamming=3)
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (3, 77_777) in pairs
        assert (out["hamming"] <= 3).all()
        assert (out["id_a"] < out["id_b"]).all()
        with pytest.raises(ValueError, match="Hamming"):
            q_simhash_dups(str(d), max_hamming=6)

    def test_containment_dups_finds_copied_passage(self, ray_session,
                                                   tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.pipelines.text_pipelines import (
            q_containment_dups,
        )

        base = pd.read_parquet(f"{SF}/documents.parquet")
        # doc 88888 = fresh words + a 40-token passage copied from doc 7
        chunk = " ".join(base.iloc[7]["text"].split()[:40])
        filler = " ".join(f"novel{i} fresh{i} word{i}" for i in range(30))
        stolen = pd.DataFrame({
            "doc_id": [88_888],
            "text": [filler + " " + chunk + " " + filler.replace("l", "x")],
            "lang": ["en"], "source": ["srcX"],
            "n_chars": [0],
        })
        corpus = pd.concat([base, stolen], ignore_index=True)
        d = tmp_path / "docs_cont"
        d.mkdir()
        pq.write_table(pa.Table.from_pandas(corpus, preserve_index=False),
                       str(d / "documents.parquet"))
        out = q_containment_dups(str(d), window=16, min_shared=3)
        pairs = {(a, b): (s, c) for a, b, s, c in
                 zip(out["id_a"], out["id_b"], out["shared"],
                     out["containment_bp"])}
        assert (7, 88_888) in pairs
        shared, containment = pairs[(7, 88_888)]
        # a 40-token copied run yields 40-16+1 = 25 shared windows
        assert shared == 25
        assert containment > 0
        # whole-doc near-dup would MISS this pair (low Jaccard) — that's
        # exactly why the containment pass exists
        from associationabacminer_ray.stages.dedup import shingle_set_jaccard
        assert shingle_set_jaccard(base.iloc[7]["text"],
                                   stolen.iloc[0]["text"]) < 0.5

    def test_containment_winnowing_cuts_rows_keeps_recall(self, ray_session,
                                                          tmp_path):
        """Winnowing mode (VERDICT r2 #5): ≥5× fewer emitted window-hash
        rows than stride-1, while the planted 40-token stolen passage is
        still caught (40 ≥ window + w − 1 = 16 + 12 − 1 = 27)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from associationabacminer_ray.stages.dedup import RollingWindowHashes
        from associationabacminer_ray.pipelines.text_pipelines import (
            q_containment_dups,
        )

        base = pd.read_parquet(f"{SF}/documents.parquet")
        chunk = " ".join(base.iloc[7]["text"].split()[:40])
        filler = " ".join(f"novel{i} fresh{i} word{i}" for i in range(30))
        stolen = pd.DataFrame({
            "doc_id": [88_888],
            "text": [filler + " " + chunk + " " + filler.replace("l", "x")],
            "lang": ["en"], "source": ["srcX"], "n_chars": [0],
        })
        corpus = pd.concat([base, stolen], ignore_index=True)
        d = tmp_path / "docs_win"
        d.mkdir()
        pq.write_table(pa.Table.from_pandas(corpus, preserve_index=False),
                       str(d / "documents.parquet"))
        # emitted-row reduction, measured on the identical corpus
        dense = RollingWindowHashes(window=16)(corpus)
        winnowed = RollingWindowHashes(window=16, winnow=12)(corpus)
        assert len(winnowed) * 5 <= len(dense), (
            f"winnow only cut {len(dense)}/{len(winnowed)}x")
        # deterministic-recall contract: the shared fingerprints survive
        out = q_containment_dups(str(d), window=16, min_shared=1, winnow=12)
        assert (7, 88_888) in set(zip(out["id_a"], out["id_b"]))
        # winnow + stride are mutually exclusive (guarantee would break)
        with pytest.raises(ValueError, match="stride"):
            RollingWindowHashes(window=16, stride=2, winnow=8)

    def test_pairs_topk_chunked_multislab_matches_bruteforce(self, monkeypatch):
        """Force the multi-slab path (_PAIR_CHUNK tiny) and check the
        cross-slab merge against an all-pairs brute force under the
        global (sim_bp desc, id_a, id_b) total order — both the
        triangle and cross-set modes."""
        import associationabacminer_ray.pipelines.ann as ann

        monkeypatch.setattr(ann, "_PAIR_CHUNK", 7)
        rng = np.random.default_rng(11)
        amat = ann._normalize(rng.standard_normal((40, 16)))
        aid = np.arange(100, 140, dtype=np.int64)
        bmat = ann._normalize(rng.standard_normal((23, 16)))
        bid = np.arange(500, 523, dtype=np.int64)

        def brute(m1, i1, m2, i2, k, triangle):
            rows = []
            for i in range(len(i1)):
                for j in range(len(i2)):
                    if triangle and j <= i:
                        continue
                    bp = int(np.floor(float(m1[i] @ m2[j]) * 10000 + 0.5))
                    lo, hi = sorted((int(i1[i]), int(i2[j])))
                    rows.append((bp, lo, hi))
            rows.sort(key=lambda r: (-r[0], r[1], r[2]))
            return rows[:k]

        for triangle, m2, i2 in ((True, amat, aid), (False, bmat, bid)):
            got = ann._pairs_topk_chunked(amat, aid, m2, i2, 10,
                                          positional_triangle=triangle)
            got_rows = list(zip(got["sim_bp"].astype(int),
                                got["id_a"].astype(int),
                                got["id_b"].astype(int)))
            assert got_rows == brute(amat, aid, m2, i2, 10, triangle), (
                f"triangle={triangle}")

    def test_topk_pairs_block_path_matches_broadcast(self, ray_session):
        """The size-gated block-pair tournament (VERDICT r2 #2) is exact:
        forcing the big path (broadcast_max_rows=0) must reproduce the
        broadcast path's ranked pairs bit-for-bit."""
        from associationabacminer_ray.pipelines.ann import q_embedding_topk_pairs

        broadcast = q_embedding_topk_pairs(SF, k=20)
        blocked = q_embedding_topk_pairs(SF, k=20, broadcast_max_rows=0,
                                         n_blocks=4)
        pd.testing.assert_frame_equal(blocked, broadcast)

    def test_knn_ivf_recall_vs_brute(self, ray_session):
        from associationabacminer_ray.pipelines.ann import knn_brute, knn_ivf

        brute = knn_brute(SF, n_queries=5, k=5)
        ivf = knn_ivf(SF, n_queries=5, k=5, n_clusters=8, nprobe=4)
        recall_hits = 0
        for q in range(5):
            b = set(brute.loc[brute["query_id"] == q, "neighbor_id"])
            i = set(ivf.loc[ivf["query_id"] == q, "neighbor_id"])
            recall_hits += len(b & i)
        assert recall_hits / 25 >= 0.5  # nprobe=4 of 8 buckets

    def test_knn_ivf_recall_gate_entry(self, ray_session):
        """The derived gate check (VERDICT r4 #4): every query's IVF
        top-k contains >= 3/5 of the brute-force top-k at the gate
        parameters (nprobe=8/16)."""
        from associationabacminer_ray.pipelines.ann import q_knn_ivf_recall

        out = q_knn_ivf_recall(SF)
        assert list(out.columns) == ["query_id", "recall_ok"]
        assert sorted(out["query_id"]) == [0, 1, 2, 3, 4]
        assert (out["recall_ok"] == 1).all()

    def test_langid_runs_on_documents(self, ray_session):
        from associationabacminer_ray.pipelines.text_pipelines import q_langid

        out = q_langid(SF).to_pandas()
        assert len(out) == 500
        assert set(out["lang_pred"]) <= {"en", "de", "es", "fr", "unknown"}


class TestMultimodal:
    def test_real_ppm_roundtrip_and_pipeline(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.stages.multimodal import (
            Decode,
            ImageFeatures,
            ImageResize,
            decode_ppm,
            encode_ppm,
            make_real_multimodal_table,
        )

        # encode → decode is lossless
        img = np.arange(6 * 5 * 3, dtype=np.uint8).reshape(6, 5, 3)
        np.testing.assert_array_equal(decode_ppm(encode_ppm(img)), img)
        # comment-tolerant header
        hdr = b"P6\n# a comment\n5 6\n255\n" + img.tobytes()
        np.testing.assert_array_equal(decode_ppm(hdr), img)

        tbl = make_real_multimodal_table(n=24, modality="image")
        ds = rd.from_pandas(tbl)
        out = (ds.map_batches(Decode, batch_size=8, concurrency=2,
                              batch_format="pandas")
               .map_batches(ImageResize, batch_size=8, concurrency=2,
                            batch_format="pandas",
                            fn_constructor_kwargs={"out_h": 8, "out_w": 8})
               .map_batches(ImageFeatures, batch_size=8, concurrency=2,
                            batch_format="pandas")).to_pandas()
        assert len(out) == 24
        assert all(p.shape == (8, 8, 3) for p in out["pixels"])
        feats = np.stack(out["feature"].to_numpy())
        assert feats.shape == (24, 3 + 3 + 16)
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0,
                                   atol=1e-5)
        # deterministic across runs
        out2 = (rd.from_pandas(tbl)
                .map_batches(Decode, batch_size=8, concurrency=2,
                             batch_format="pandas")
                .map_batches(ImageFeatures, batch_size=8, concurrency=2,
                             batch_format="pandas")).to_pandas()
        f2 = np.stack(out2.sort_values("item_id")["feature"].to_numpy())
        f1 = np.stack((ds.map_batches(Decode, batch_size=8, concurrency=2,
                                      batch_format="pandas")
                       .map_batches(ImageFeatures, batch_size=8, concurrency=2,
                                    batch_format="pandas"))
                      .to_pandas().sort_values("item_id")["feature"].to_numpy())
        np.testing.assert_array_equal(f1, f2)

    def test_real_wav_decode_and_features(self, ray_session):
        import ray.data as rd

        from associationabacminer_ray.stages.multimodal import (
            AudioFeatures,
            Decode,
            decode_wav,
            encode_wav,
            make_real_multimodal_table,
        )

        tone = (np.sin(np.arange(512) * 0.1) * 10000).astype(np.int16)
        samples, rate = decode_wav(encode_wav(tone, 16000))
        np.testing.assert_array_equal(samples, tone)
        assert rate == 16000

        tbl = make_real_multimodal_table(n=12, modality="audio")
        out = (rd.from_pandas(tbl)
               .map_batches(Decode, batch_size=4, concurrency=2,
                            batch_format="pandas")
               .map_batches(AudioFeatures, batch_size=4, concurrency=2,
                            batch_format="pandas")).to_pandas()
        assert (out["sample_rate"] == 16000).all()
        feats = np.stack(out["feature"].to_numpy())
        assert feats.shape == (12, 10)
        assert np.isfinite(feats).all()

    def test_compressed_codec_still_raises(self):
        import pandas as pd

        from associationabacminer_ray.stages.multimodal import Decode

        # MP3/MP4 decode genuinely isn't available (PNG, baseline JPEG
        # and GIF now are — round 5)
        mp3 = pd.DataFrame({"payload": [b"ID3\x04xxxx"]})
        with pytest.raises(NotImplementedError, match="mp3"):
            Decode()(mp3)
        mp4 = pd.DataFrame({"payload": [b"\x00\x00\x00\x18ftypmp42xx"]})
        with pytest.raises(NotImplementedError, match="mp4"):
            Decode()(mp4)
        # truncated PNG/JPEG/GIF surface the documented error, not a crash
        for payload, msg in ((b"\x89PNG\r\n\x1a\nxxxx", "truncated PNG"),
                             (b"\xff\xd8\xff\xe0xxxx", ""),
                             (b"GIF89a xxxx", "GIF")):
            with pytest.raises(NotImplementedError, match=msg):
                Decode()(pd.DataFrame({"payload": [payload]}))

class TestBmpCodec:
    def test_bmp_round_trip_with_padding(self):
        """Widths where the 4-byte row padding is non-zero must
        round-trip exactly (w % 4 != 0 exercises the stride)."""
        from associationabacminer_ray.stages.multimodal import (
            decode_bmp,
            encode_bmp,
        )

        rng = np.random.default_rng(11)
        for w in (1, 2, 3, 5, 17):
            img = rng.integers(0, 256, (7, w, 3), dtype=np.uint8)
            assert (decode_bmp(encode_bmp(img)) == img).all()

    def test_bmp_top_down_row_order(self):
        """Negative biHeight (top-down storage) decodes to the same
        image as the bottom-up encoding."""
        import struct

        from associationabacminer_ray.stages.multimodal import (
            decode_bmp,
            encode_bmp,
        )

        rng = np.random.default_rng(12)
        img = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        b = bytearray(encode_bmp(img))
        # flip to top-down: negate height, reverse stored row order
        h, w = img.shape[:2]
        stride = (w * 3 + 3) // 4 * 4
        off = struct.unpack_from("<I", b, 10)[0]
        struct.pack_into("<i", b, 22, -h)
        rows = np.frombuffer(bytes(b[off:off + h * stride]),
                             np.uint8).reshape(h, stride)
        b[off:off + h * stride] = rows[::-1].tobytes()
        assert (decode_bmp(bytes(b)) == img).all()

    def test_decode_stage_accepts_bmp(self, ray_session):
        from associationabacminer_ray.stages.multimodal import (
            Decode,
            encode_bmp,
        )

        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, (6, 5, 3), dtype=np.uint8)
        batch = pd.DataFrame({"item_id": ["x"], "modality": ["image"],
                              "payload": [encode_bmp(img)],
                              "meta": ["{}"]})
        out = Decode()(batch)
        assert (out["pixels"].iloc[0] == img).all()
        assert out["decoded_shape"].iloc[0] == "[6, 5, 3]"

    def test_bmp_compressed_raises(self):
        import struct

        from associationabacminer_ray.stages.multimodal import decode_bmp

        # Full 54-byte header + pixel payload so the buffer passes the
        # len(b) < 54 truncation guard and actually reaches the
        # compression != 0 rejection branch (review fix: the old
        # 34-byte buffer only ever exercised the truncation guard).
        info = struct.pack("<IiiHHI", 40, 2, 2, 1, 24, 1)  # compression=1
        info += b"\x00" * (40 - len(info))                 # pad to biSize=40
        hdr = struct.pack("<2sIHHI", b"BM", 14 + 40 + 16, 0, 0, 54)
        payload = hdr + info + b"\x00" * 16                # past data_off
        assert len(payload) >= 54 + 16
        with pytest.raises(NotImplementedError, match="compression=1"):
            decode_bmp(payload)

    def test_bmp_malformed_raises_not_struct_error(self):
        """'BM'-prefixed garbage must raise the stage's documented
        NotImplementedError, never a raw struct.error (review fix)."""
        import struct

        from associationabacminer_ray.stages.multimodal import decode_bmp

        with pytest.raises(NotImplementedError):
            decode_bmp(b"BMxx")                   # truncated header
        # BITMAPCOREHEADER variant (biSize=12)
        core = struct.pack("<2sIHHI", b"BM", 100, 0, 0, 26) \
            + struct.pack("<IHHHH", 12, 2, 2, 1, 24) + b"\x00" * 60
        with pytest.raises(NotImplementedError):
            decode_bmp(core)
        # negative width
        info = struct.pack("<IiiHHI", 40, -3, 2, 1, 24, 0)
        hdr = struct.pack("<2sIHHI", b"BM", 14 + 40 + 32, 0, 0, 54)
        with pytest.raises(NotImplementedError):
            decode_bmp(hdr + info + b"\x00" * 32)


def _png_chunk(typ: bytes, data: bytes) -> bytes:
    import struct
    import zlib

    return (struct.pack(">I", len(data)) + typ + data
            + struct.pack(">I", zlib.crc32(typ + data)))


def _png_forward_filtered(img: np.ndarray, ftypes: list[int]) -> bytes:
    """Build a PNG by applying the spec's FORWARD filters row by row —
    an independent construction, so decode_png's unfilter inverses are
    tested against the spec, not against encode_png."""
    import struct
    import zlib

    h, w, nch = img.shape
    bpp = nch
    raw = img.reshape(h, w * nch).astype(np.int32)
    out, prev = [], np.zeros(w * nch, np.int32)
    for y in range(h):
        line, f = raw[y], ftypes[y % len(ftypes)]
        filt = np.zeros(w * nch, np.int32)
        for x in range(w * nch):
            a = line[x - bpp] if x >= bpp else 0
            b = prev[x]
            c = prev[x - bpp] if x >= bpp else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (
                    b if pb <= pc else c)
            filt[x] = (line[x] - pred) & 0xFF
        out.append(bytes([f]) + bytes(filt.astype(np.uint8)))
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(b"".join(out)))
            + _png_chunk(b"IEND", b""))


class TestPngCodec:
    """Real 8-bit PNG decode (round 5): pure stdlib zlib + numpy."""

    def test_png_roundtrip_all_layouts(self):
        from associationabacminer_ray.stages.multimodal import (
            decode_png,
            encode_png,
        )

        rng = np.random.default_rng(7)
        for shape in [(13, 17), (9, 5, 2), (21, 33, 3), (8, 8, 4)]:
            a = rng.integers(0, 256, shape, dtype=np.uint8)
            d = decode_png(encode_png(a))
            assert d.shape == a.shape and (d == a).all()

    def test_png_all_five_filter_types(self):
        from associationabacminer_ray.stages.multimodal import decode_png

        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, (16, 11, 3), dtype=np.uint8)
        for fts in ([1], [2], [3], [4], [0, 1, 2, 3, 4]):
            got = decode_png(_png_forward_filtered(img, fts))
            assert (got == img).all(), fts

    def test_png_palette(self):
        import struct
        import zlib

        from associationabacminer_ray.stages.multimodal import decode_png

        rng = np.random.default_rng(9)
        pal = rng.integers(0, 256, (7, 3), dtype=np.uint8)
        idx = rng.integers(0, 7, (6, 10), dtype=np.uint8)
        scan = b"".join(b"\x00" + bytes(idx[y]) for y in range(6))
        png = (b"\x89PNG\r\n\x1a\n"
               + _png_chunk(b"IHDR",
                            struct.pack(">IIBBBBB", 10, 6, 8, 3, 0, 0, 0))
               + _png_chunk(b"PLTE", bytes(pal.ravel()))
               + _png_chunk(b"IDAT", zlib.compress(scan))
               + _png_chunk(b"IEND", b""))
        assert (decode_png(png) == pal[idx]).all()

    def test_png_unsupported_raise_not_crash(self):
        import struct
        import zlib

        from associationabacminer_ray.stages.multimodal import decode_png

        def ihdr(depth=8, ctype=2, interlace=0):
            return _png_chunk(
                b"IHDR",
                struct.pack(">IIBBBBB", 4, 4, depth, ctype, 0, 0, interlace))

        sig = b"\x89PNG\r\n\x1a\n"
        idat = _png_chunk(b"IDAT", zlib.compress(b"\x00" * 13 * 4))
        end = _png_chunk(b"IEND", b"")
        for bad in (
            sig + ihdr(depth=16) + idat + end,          # 16-bit
            sig + ihdr(interlace=1) + idat + end,       # Adam7
            sig + ihdr(ctype=7) + idat + end,           # bad color type
            sig + ihdr(),                               # missing IDAT
            sig + ihdr(ctype=3) + idat + end,           # palette, no PLTE
            sig + ihdr() + _png_chunk(b"IDAT", b"junk") + end,  # corrupt
        ):
            with pytest.raises(NotImplementedError):
                decode_png(bad)

    def test_png_pipeline_matches_ppm(self, ray_session):
        """Same seed ⇒ identical pixels under both codecs, so the full
        Decode→Resize→Features chain must produce byte-identical
        features from PNG and PPM payloads."""
        import ray.data as rd

        from associationabacminer_ray.stages.multimodal import (
            Decode,
            ImageFeatures,
            ImageResize,
            make_real_multimodal_table,
        )

        def run(codec):
            tbl = make_real_multimodal_table(n=16, modality="image",
                                             image_codec=codec)
            return (rd.from_pandas(tbl)
                    .map_batches(Decode, batch_size=8, concurrency=2,
                                 batch_format="pandas")
                    .map_batches(ImageResize, batch_size=8, concurrency=2,
                                 batch_format="pandas",
                                 fn_constructor_kwargs={"out_h": 8,
                                                        "out_w": 8})
                    .map_batches(ImageFeatures, batch_size=8, concurrency=2,
                                 batch_format="pandas")
                    ).to_pandas().sort_values("item_id")

        ppm, png = run("ppm"), run("png")
        np.testing.assert_array_equal(
            np.stack(ppm["feature"].to_numpy()),
            np.stack(png["feature"].to_numpy()))


class TestJpegCodec:
    """Baseline JPEG (round 5): pure numpy + stdlib, stages/jpeg.py."""

    def test_solid_rgb_exact(self):
        """R=G=B solids are quantization-error-free by construction
        (Y=v, Cb=Cr=128, DC quant=2 at q95 ⇒ pixel error < 0.5)."""
        from associationabacminer_ray.stages.jpeg import (
            decode_jpeg,
            encode_jpeg,
        )

        for v in (0, 7, 128, 200, 255):
            img = np.full((24, 17, 3), v, np.uint8)
            out = decode_jpeg(encode_jpeg(img, quality=95))
            assert out.shape == img.shape and (out == img).all()

    def test_gradient_psnr_444_and_420(self):
        from associationabacminer_ray.stages.jpeg import (
            decode_jpeg,
            encode_jpeg,
        )

        xx, yy = np.meshgrid(np.arange(40), np.arange(33))
        img = np.stack([(xx * 3) % 256, (yy * 5) % 256,
                        ((xx + yy) * 2) % 256], -1).astype(np.uint8)
        for sub, floor in ((False, 45.0), (True, 40.0)):
            out = decode_jpeg(encode_jpeg(img, quality=90, subsample=sub))
            mse = ((out.astype(float) - img) ** 2).mean()
            assert 10 * np.log10(255 ** 2 / mse) > floor

    def test_noise_rmse_bound_and_grayscale(self):
        from associationabacminer_ray.stages.jpeg import (
            decode_jpeg,
            encode_jpeg,
        )

        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (16, 16, 3), np.uint8)
        out = decode_jpeg(encode_jpeg(img, quality=95))
        assert np.sqrt(((out.astype(float) - img) ** 2).mean()) < 12
        g = rng.integers(0, 256, (21, 19), np.uint8)
        out = decode_jpeg(encode_jpeg(g, quality=95))
        assert out.shape == g.shape
        assert np.sqrt(((out.astype(float) - g) ** 2).mean()) < 12

    def test_grayscale_sampling_factors_are_ignored(self):
        """A one-component scan is non-interleaved (T.81 A.2.2): each MCU
        is one 8×8 block whatever the frame's Hi/Vi, so a grayscale SOF0
        declaring 2×2 sampling decodes to the same pixels as 1×1."""
        from associationabacminer_ray.stages.jpeg import (
            decode_jpeg,
            encode_jpeg,
        )

        g = np.random.default_rng(8).integers(0, 256, (21, 19), np.uint8)
        for restart in (0, 2):
            stream = bytearray(encode_jpeg(g, quality=90, restart_interval=restart))
            sof = stream.index(b"\xff\xc0")
            # FFC0, Lf(2), P, Y(2), X(2), Nf, then component 1: C, HV, Tq
            assert stream[sof + 9] == 1 and stream[sof + 11] == 0x11
            stream[sof + 11] = 0x22
            assert (decode_jpeg(bytes(stream))
                    == decode_jpeg(encode_jpeg(g, quality=90))).all()

    def test_restart_markers_do_not_change_pixels(self):
        from associationabacminer_ray.stages.jpeg import (
            decode_jpeg,
            encode_jpeg,
        )

        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, (33, 47, 3), np.uint8)
        assert (decode_jpeg(encode_jpeg(img, 80, restart_interval=3))
                == decode_jpeg(encode_jpeg(img, 80))).all()
        img = rng.integers(0, 256, (19, 21, 3), np.uint8)
        assert (decode_jpeg(encode_jpeg(img, 85, subsample=True,
                                        restart_interval=2))
                == decode_jpeg(encode_jpeg(img, 85, subsample=True))).all()

    def test_hand_built_stream_matches_independent_idct(self):
        """Decode a stream built BY HAND from T.81 (canonical codes
        derived manually from the Annex K bit-length tables: DC cat3 =
        '100', AC (0,2) = '01', EOB = '1010') and compare against the
        spec's cosine-sum IDCT computed here without the module's DCT
        matrix — catches symmetric encoder/decoder bugs."""
        import struct

        from associationabacminer_ray.stages.jpeg import (
            _HT_AC_LUM,
            _HT_DC_LUM,
            decode_jpeg,
        )

        def seg(marker, payload):
            return struct.pack(">BBH", 0xFF, marker,
                               len(payload) + 2) + payload

        # grayscale 8×8, unit quant; zigzag coefs DC=5, k1=-3, rest 0
        # bits: 100|101|01|00|1010 + '11' pad = 0x95 0x2B
        jpg = (b"\xff\xd8"
               + seg(0xDB, bytes([0]) + bytes([1] * 64))
               + seg(0xC0, bytes([8]) + struct.pack(">HH", 8, 8)
                     + bytes([1, 1, 0x11, 0]))
               + seg(0xC4, bytes([0x00]) + bytes(_HT_DC_LUM[0])
                     + bytes(_HT_DC_LUM[1]))
               + seg(0xC4, bytes([0x10]) + bytes(_HT_AC_LUM[0])
                     + bytes(_HT_AC_LUM[1]))
               + seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
               + bytes([0x95, 0x2B]) + b"\xff\xd9")
        got = decode_jpeg(jpg)

        coef = np.zeros((8, 8))
        coef[0, 0], coef[0, 1] = 5.0, -3.0

        def C(u):
            return 1 / np.sqrt(2) if u == 0 else 1.0

        exp = np.zeros((8, 8))
        for y in range(8):
            for x in range(8):
                s = 0.0
                for u in range(8):
                    for v in range(8):
                        s += (C(u) * C(v) * coef[u, v]
                              * np.cos((2 * x + 1) * v * np.pi / 16)
                              * np.cos((2 * y + 1) * u * np.pi / 16))
                exp[y, x] = s / 4 + 128
        exp = np.clip(np.round(exp), 0, 255).astype(np.uint8)
        assert (got == exp).all()

    def test_unsupported_modes_raise(self):
        import struct

        from associationabacminer_ray.stages.jpeg import decode_jpeg

        progressive = (b"\xff\xd8\xff\xc2" + struct.pack(">H", 8)
                       + b"\x08\x00\x01\x00\x01\x00")
        with pytest.raises(NotImplementedError, match="SOF2"):
            decode_jpeg(progressive)
        with pytest.raises(NotImplementedError):
            decode_jpeg(b"\xff\xd8\xff\xd9")

    def test_truncated_segments_raise(self):
        """A header segment shorter than its fields or its declared
        length surfaces as NotImplementedError, never struct.error or
        IndexError — for a hand-cut SOF0 and every prefix of a real
        stream's headers."""
        import struct

        from associationabacminer_ray.stages.jpeg import decode_jpeg, encode_jpeg

        with pytest.raises(NotImplementedError, match="truncated JPEG segment"):
            decode_jpeg(b"\xff\xd8\xff\xc0\x00\x05\x08\x00\x10")
        img = np.random.default_rng(16).integers(0, 256, (8, 8, 3), dtype=np.uint8)
        jpg = encode_jpeg(img, quality=90, subsample=True, restart_interval=1)
        sos = jpg.index(b"\xff\xda")
        scan_start = sos + 2 + struct.unpack_from(">H", jpg, sos + 2)[0]
        for cut in range(2, scan_start + 1):
            with pytest.raises(NotImplementedError):
                decode_jpeg(jpg[:cut])

    def test_decode_stage_routes_jpeg(self):
        from associationabacminer_ray.stages.jpeg import encode_jpeg
        from associationabacminer_ray.stages.multimodal import Decode

        rng = np.random.default_rng(14)
        img = rng.integers(0, 256, (12, 9, 3), dtype=np.uint8)
        batch = pd.DataFrame({"item_id": ["x"], "modality": ["image"],
                              "payload": [encode_jpeg(img, quality=95)],
                              "meta": ["{}"]})
        out = Decode()(batch)
        dec = out["pixels"].iloc[0]
        assert dec.shape == img.shape
        assert np.sqrt(((dec.astype(float) - img) ** 2).mean()) < 12
        assert out["decoded_shape"].iloc[0] == "[12, 9, 3]"


class TestGifCodec:
    """GIF87a/89a LZW decode (round 5): pure numpy + stdlib."""

    def test_round_trips(self):
        from associationabacminer_ray.stages.gif import (
            decode_gif,
            encode_gif,
        )

        rng = np.random.default_rng(3)
        for (h, w, ncol) in [(5, 7, 3), (16, 16, 250), (33, 9, 17)]:
            pal = rng.integers(0, 256, (ncol, 3), np.uint8)
            idx = rng.integers(0, ncol, (h, w), np.uint8)
            for inter in (False, True):
                out = decode_gif(encode_gif(idx, pal, interlace=inter))
                assert out.shape == (h, w, 3) and (out == pal[idx]).all()

    def test_dictionary_clear_and_long_matches(self):
        from associationabacminer_ray.stages.gif import (
            decode_gif,
            encode_gif,
        )

        rng = np.random.default_rng(4)
        # noise big enough to overflow the 4096-entry table (clear path)
        pal = rng.integers(0, 256, (256, 3), np.uint8)
        idx = rng.integers(0, 256, (128, 211), np.uint8)
        assert (decode_gif(encode_gif(idx, pal)) == pal[idx]).all()
        # highly repetitive input (long LZW matches)
        idx2 = np.tile(np.arange(7, dtype=np.uint8), (100, 30))[:, :200]
        pal2 = rng.integers(0, 256, (7, 3), np.uint8)
        assert (decode_gif(encode_gif(idx2, pal2)) == pal2[idx2]).all()

    def test_hand_built_lzw_stream(self):
        """Pixels [1,1,1,2,2] LZW-coded BY HAND per the spec (including
        the 3→4-bit width transition when the table reaches 8 entries) —
        decode must reproduce them without our encoder in the loop."""
        import struct

        from associationabacminer_ray.stages.gif import decode_gif

        bits = []
        for code, wdt in [(4, 3), (1, 3), (6, 3), (2, 3), (2, 4), (5, 4)]:
            bits += [(code >> i) & 1 for i in range(wdt)]
        by = bytearray()
        for i in range(0, len(bits), 8):
            v = 0
            for j, bit in enumerate(bits[i:i + 8]):
                v |= bit << j
            by.append(v)
        pal = np.array([[10, 10, 10], [20, 30, 40], [50, 60, 70],
                        [0, 0, 0]], np.uint8)
        gif = (b"GIF89a" + struct.pack("<HHBBB", 5, 1, 0x80 | 1, 0, 0)
               + pal.tobytes()
               + struct.pack("<BHHHHB", 0x2C, 0, 0, 5, 1, 0) + bytes([2])
               + bytes([len(by)]) + bytes(by) + b"\x00\x3b")
        exp = pal[np.array([[1, 1, 1, 2, 2]], np.uint8)]
        assert (decode_gif(gif) == exp).all()

    def test_malformed_raise(self):
        import struct

        from associationabacminer_ray.stages.gif import decode_gif

        with pytest.raises(NotImplementedError):
            decode_gif(b"GIF89a" + b"\x00" * 5)       # truncated header
        with pytest.raises(NotImplementedError):      # trailer, no frame
            decode_gif(b"GIF89a"
                       + struct.pack("<HHBBB", 2, 2, 0, 0, 0) + b"\x3b")
        # 256-entry global table declared, 5 bytes carried
        with pytest.raises(NotImplementedError, match="color table"):
            decode_gif(b"GIF89a" + struct.pack("<HHBBB", 2, 2, 0x87, 0, 0)
                       + b"\x00" * 5)
        # 2-entry local table declared, 1 byte carried
        with pytest.raises(NotImplementedError, match="color table"):
            decode_gif(b"GIF89a" + struct.pack("<HHBBB", 2, 2, 0, 0, 0)
                       + struct.pack("<BHHHHB", 0x2C, 0, 0, 2, 2, 0x80)
                       + b"\x00")
        # stream ends right after the image descriptor: no LZW min code
        with pytest.raises(NotImplementedError, match="image data"):
            decode_gif(b"GIF89a" + struct.pack("<HHBBB", 2, 2, 0x80, 0, 0)
                       + b"\x00" * 6
                       + struct.pack("<BHHHHB", 0x2C, 0, 0, 2, 2, 0))

    def test_decode_stage_routes_gif(self):
        from associationabacminer_ray.stages.gif import encode_gif
        from associationabacminer_ray.stages.multimodal import Decode

        rng = np.random.default_rng(15)
        pal = rng.integers(0, 256, (11, 3), np.uint8)
        idx = rng.integers(0, 11, (9, 13), np.uint8)
        batch = pd.DataFrame({"item_id": ["x"], "modality": ["image"],
                              "payload": [encode_gif(idx, pal)],
                              "meta": ["{}"]})
        out = Decode()(batch)
        assert (out["pixels"].iloc[0] == pal[idx]).all()
        assert out["decoded_shape"].iloc[0] == "[9, 13, 3]"


def test_multimodal_codecs_query(ray_session, sf_dir):
    """The mixed-codec gate query: lossless codecs must reproduce their
    pre-encode arrays EXACTLY (pixel-parity is recomputed here from the
    same deterministic corpus construction), and the JPEG q95 mean
    absolute error stays inside the quantization-table bound."""
    import associationabacminer_ray.pipelines.text_pipelines as tpl
    from associationabacminer_ray.stages.gif import encode_gif
    from associationabacminer_ray.stages.multimodal import encode_png

    got = tpl.q_multimodal_codecs(sf_dir).set_index("codec")
    assert set(got.index) == {"png", "jpeg", "gif"}
    # independent reconstruction of the lossless codecs' ground truth
    from associationabacminer_ray.runtime import sf_tag

    n = {"sf0.01": 48, "sf0.1": 192}.get(sf_tag(sf_dir), 12)
    rng = np.random.default_rng(17)
    sums = {"png": 0, "gif": 0}
    counts = {"png": 0, "jpeg": 0, "gif": 0}
    pixels = {"png": 0, "jpeg": 0, "gif": 0}
    for i in range(n):
        h, w = int(rng.integers(6, 40)), int(rng.integers(6, 40))
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        codec = ("png", "jpeg", "gif")[i % 3]
        if codec == "png":
            encode_png(img)  # advance nothing; parity on img below
            sums["png"] += int(img.astype(np.int64).sum())
        elif codec == "gif":
            pal = rng.integers(0, 256, (64, 3), np.uint8)
            idx = rng.integers(0, 64, (h, w), np.uint8)
            img = pal[idx]
            encode_gif(idx, pal)
            sums["gif"] += int(img.astype(np.int64).sum())
        counts[codec] += 1
        pixels[codec] += img.size
    for codec in ("png", "gif"):
        assert got.loc[codec, "n_items"] == counts[codec]
        assert got.loc[codec, "pixel_sum"] == sums[codec]
        assert got.loc[codec, "mean_abs_err_bp"] == 0  # lossless
    assert got.loc["jpeg", "n_items"] == counts["jpeg"]
    assert got.loc["jpeg", "n_pixels"] == pixels["jpeg"]
    # q95 quantization keeps noise-image MAE well under 8/255
    assert 0 < got.loc["jpeg", "mean_abs_err_bp"] < 80_000


class TestByteHashKernels:
    """Byte-level segmented polynomial hashing (VERDICT r3 #2): the
    vectorized shingle/token extraction must be a pure function of doc
    content — batch-split invariant — and RollingWindowHashes must be
    row-identical to the per-doc reference fold in every mode."""

    @staticmethod
    def _texts():
        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta", "eps", "zeta",
                 "eta", "theta"]
        texts = [" ".join(rng.choice(words, int(n)))
                 for n in rng.integers(0, 60, 40)]
        texts += [texts[3] + " " + texts[5], "", "ab", "x\ty  z\nq",
                  None]
        return texts

    def test_shingle_hashes_split_invariant_and_counts(self):
        from associationabacminer_ray.functions.hashing import (
            char_shingle_hashes_bytes,
        )

        texts = self._texts()
        h, off = char_shingle_hashes_bytes(pd.Series(texts), k=5)
        # per-doc counts match the Python-slicing definition
        for i, t in enumerate(texts):
            t = t or ""
            assert off[i + 1] - off[i] == max(1, len(t) - 4)
        # batch-split invariance: content-only hashes
        for cut in (1, 7, len(texts) - 2):
            h1, _ = char_shingle_hashes_bytes(pd.Series(texts[:cut]), k=5)
            h2, _ = char_shingle_hashes_bytes(pd.Series(texts[cut:]), k=5)
            assert np.array_equal(np.concatenate([h1, h2]), h)
        # identical shingle content → identical hash across docs
        ha, _ = char_shingle_hashes_bytes(pd.Series(["abcde", "zabcde"]), k=5)
        assert ha[0] == ha[2]  # 'abcde' appears at both docs

    def test_token_hashes_match_re2_and_content(self):
        import re

        from associationabacminer_ray.functions.hashing import (
            re2_token_hashes,
        )

        texts = self._texts()
        token_re = re.compile(r"[^\t\n\f\r ]+")
        th, toff = re2_token_hashes(pd.Series(texts))
        for i, t in enumerate(texts):
            assert toff[i + 1] - toff[i] == len(token_re.findall(t or ""))
        a, _ = re2_token_hashes(pd.Series(["hello world foo"]))
        b, _ = re2_token_hashes(pd.Series(["world hello", "hello"]))
        assert a[0] == b[1] == b[2] and a[1] == b[0]
        assert len({int(x) for x in np.concatenate([a, b])}) == 3

    def test_rolling_window_parity_with_per_doc_reference(self):
        import re

        from numpy.lib.stride_tricks import sliding_window_view

        from associationabacminer_ray.functions.hashing import (
            mix_with_seed,
            re2_token_hashes,
        )
        from associationabacminer_ray.stages.dedup import (
            RollingWindowHashes,
            _winnow_select,
        )

        texts = self._texts()
        ids = np.arange(len(texts), dtype=np.int64)
        batch = pd.DataFrame({"doc_id": ids, "text": texts})
        token_re = re.compile(r"[^\t\n\f\r ]+")

        def reference(window, stride, winnow, seed=17):
            pos_mix = RollingWindowHashes(window=window, seed=seed).pos_mix
            rows = []
            for doc_id, t in zip(ids, batch["text"].fillna("")):
                if len(token_re.findall(t)) < window:
                    continue
                th, _ = re2_token_hashes(pd.Series([t]))
                h = mix_with_seed(th, seed)
                win = sliding_window_view(h, window)[::stride]
                with np.errstate(over="ignore"):
                    folded = np.bitwise_xor.reduce(
                        win * pos_mix[None, :], axis=1)
                if winnow and len(folded) > winnow:
                    folded = _winnow_select(folded, winnow)
                for f in folded:
                    rows.append((doc_id, f, len(folded)))
            return pd.DataFrame(rows, columns=["doc_id", "win_hash",
                                               "n_windows"])

        for kw in ({}, {"stride": 3}, {"winnow": 12}, {"winnow": 4},
                   {"window": 4, "winnow": 3}):
            got = RollingWindowHashes(**kw)(batch).reset_index(drop=True)
            want = reference(kw.get("window", 16), kw.get("stride", 1),
                             kw.get("winnow", 0)).reset_index(drop=True)
            assert len(got) == len(want) > 0
            for c in ("doc_id", "win_hash", "n_windows"):
                assert np.array_equal(got[c].to_numpy(),
                                      want[c].to_numpy()), (kw, c)
        # arrow and pandas inputs agree; split invariance
        import pyarrow as pa

        st = RollingWindowHashes(winnow=12)
        arrow_out = st(pa.table(
            {"doc_id": ids,
             "text": pd.Series(texts).astype(object)})).to_pandas()
        pandas_out = st(batch)
        assert np.array_equal(arrow_out["win_hash"].to_numpy(),
                              pandas_out["win_hash"].to_numpy())
        st2 = RollingWindowHashes()
        split = pd.concat([st2(batch.iloc[:17]), st2(batch.iloc[17:])],
                          ignore_index=True)
        assert split.equals(st2(batch).reset_index(drop=True))


class TestCrosscorpusBloomEnvelope:
    """The Bloom-mode cross-corpus counts are now a full SQL derivation
    (sqlgen.crosscorpus_dedup_sql) — this keeps the independent
    ENVELOPE property: per-doc, Bloom membership must be a superset of
    exact membership (no under-drop, ever — a Bloom has no false
    negatives), and the over-drop count must sit inside the false-
    positive budget the filter was sized for (fpr=1e-3, with wide
    deterministic headroom). Probes hash with the SAME poly family the
    engine keys on (a mismatched family would make both assertions
    vacuous)."""

    def test_bloom_superset_and_fp_budget(self):
        import ray

        from associationabacminer_ray.functions.hashing import (
            hash_strings_poly)
        from associationabacminer_ray.pipelines.text_pipelines import (
            _docs,
            _ref_corpus_hashes,
        )
        from associationabacminer_ray.sketches import BloomFilter
        from associationabacminer_ray.udaf import BloomAgg

        ref_hashes = _ref_corpus_hashes(SF).materialize()
        n_ref = ref_hashes.count()
        shape = BloomFilter.for_capacity(max(n_ref, 1), fpr=0.001)
        blob = ref_hashes.aggregate(
            BloomAgg("h", num_bits=shape.num_bits,
                     num_hashes=shape.num_hashes, alias="bloom"))["bloom"]
        bloom = BloomFilter.from_bytes(blob)
        exact = np.sort(np.concatenate(
            [b["h"].to_numpy() for b in
             ref_hashes.iter_batches(batch_format="pandas")]))

        n_probes = 0
        n_over = 0
        for b in _docs(SF, ["doc_id", "text"]).iter_batches(
                batch_format="pandas"):
            h = hash_strings_poly(b["text"])
            seen_exact = np.isin(h, exact)
            seen_bloom = bloom.contains_hashed(h)
            # no under-drop: exact membership implies Bloom membership
            assert not (seen_exact & ~seen_bloom).any()
            n_probes += int((~seen_exact).sum())
            n_over += int((seen_bloom & ~seen_exact).sum())
        assert n_probes > 0
        # fp budget: E[over-drop] = fpr * n_unseen; 20x + 5 headroom
        # keeps the assertion deterministic-corpus-safe while still
        # catching a mis-sized or corrupted filter outright
        assert n_over <= 20 * 0.001 * n_probes + 5, (n_over, n_probes)
