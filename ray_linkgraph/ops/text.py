"""Text analysis stages over a documents table (doc_id, text, ...).

All per-batch kernels are Arrow-vectorized (pyarrow.compute regex/string
kernels — RE2, the same regex engine DuckDB uses, so the SQL oracles
match exactly); the language-id stage is a callable class so its
stopword tables build once per actor.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_RE = r"\w+"
ALPHA_RE = r"[A-Za-z]"
DIGIT_RE = r"[0-9]"
PUNCT_RE = r"[.,;:!?]"

# small deterministic stopword lists for the n-gram/stopword heuristic
STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "for", "with", "as"],
    "de": ["der", "die", "das", "und", "ist", "von", "mit", "den", "für", "auf"],
    "fr": ["le", "la", "les", "et", "de", "est", "un", "une", "pour", "dans"],
}
LANG_ORDER = ["en", "de", "fr"]  # tie-break order (first wins)


def token_stats(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """(doc_id, n_tokens, n_chars): \\w+ token count + character length."""
    t = batch.column(text_col)
    return pa.table({
        id_col: batch.column(id_col),
        "n_tokens": pc.cast(pc.count_substring_regex(t, TOKEN_RE), pa.int64()),
        "n_chars": pc.cast(pc.utf8_length(t), pa.int64()),
    })


def quality_stats(batch: pa.Table, text_col: str = "text",
                  id_col: str = "doc_id") -> pa.Table:
    """Quality-scoring counts + a simple deterministic score in [0, 1]:
    alpha ratio damped by punctuation density (rounded to 10 decimals so
    the DuckDB oracle hashes identically)."""
    t = batch.column(text_col)
    n_chars = pc.cast(pc.utf8_length(t), pa.int64()).to_numpy()
    n_alpha = pc.cast(pc.count_substring_regex(t, ALPHA_RE),
                      pa.int64()).to_numpy()
    n_digit = pc.cast(pc.count_substring_regex(t, DIGIT_RE),
                      pa.int64()).to_numpy()
    n_punct = pc.cast(pc.count_substring_regex(t, PUNCT_RE),
                      pa.int64()).to_numpy()
    denom = np.maximum(n_chars, 1).astype(np.float64)
    score = np.round((n_alpha / denom) * (1.0 - n_punct / denom), 10)
    return pa.table({
        id_col: batch.column(id_col),
        "n_chars": pa.array(n_chars),
        "n_alpha": pa.array(n_alpha),
        "n_digit": pa.array(n_digit),
        "n_punct": pa.array(n_punct),
        "quality": pa.array(score),
    })


class LangId:
    """Stopword-hit language id (actor-pool stage; regexes compiled once).

    Counts whole-word stopword hits per language over lowercased text;
    predicts the max-hit language, ties broken in LANG_ORDER; 'und'
    (undetermined) when no stopword hits at all.
    """

    def __init__(self):
        self.patterns = {
            lang: r"\b(" + "|".join(ws) + r")\b"
            for lang, ws in STOPWORDS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch.column("text"))
        hits = {lang: pc.cast(pc.count_substring_regex(low, pat),
                              pa.int64()).to_numpy()
                for lang, pat in self.patterns.items()}
        n = len(batch)
        best = np.full(n, "und", dtype=object)
        best_hits = np.zeros(n, dtype=np.int64)
        for lang in LANG_ORDER:  # first language wins ties
            h = hits[lang]
            take = h > best_hits
            best[take] = lang
            best_hits[take] = h[take]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang_pred": pa.array(best.tolist(), type=pa.string()),
            "stop_hits": pa.array(best_hits),
        })


def fingerprint(batch: pa.Table, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """Document fingerprint: polynomial fold hash over the text's code
    points mod 2^31-1 (the texthash contract — whole batch vectorized
    via prefix-sum hashing, and bit-identical to the DuckDB list_reduce
    oracle generated by texthash.sql_cp_fold)."""
    from . import texthash
    fps = texthash.fingerprints(batch.column(text_col))
    return pa.table({id_col: batch.column(id_col),
                     "fingerprint": pa.array(fps)})


def _int_key(col) -> pa.Array:
    """int64 exchange key of a column of any type: polars' vectorized
    hash (partitioning only — any stable hash gives identical
    results)."""
    import polars as pl
    return pa.array(pl.from_arrow(col).hash().to_numpy().view(np.int64))


def _top_counts(t: pa.Table, k: int) -> pa.Table:
    return t.sort_by([("n", "descending"), ("token", "ascending")]) \
        .slice(0, k)


def vocab_topk(docs_ds, k: int = 100, text_col: str = "text") -> pa.Table:
    """Vocabulary build: the k most frequent ``\\w+`` tokens across the
    corpus with deterministic ordering (count desc, token asc).

    The per-batch stage tokenizes with the vectorized RE2 kernel and
    pre-counts locally (map-side combining), so the exchange carries at
    most one row per distinct token per block; each exchange group sums
    its tokens with Arrow's C++ hash group-by (the native Dataset
    aggregate materializes one group per distinct token — O(vocabulary)
    Python) and keeps its own top k, and the driver picks the global
    top k from those. The tokenizer (RE2 ``\\W+`` split) matches
    DuckDB's ``regexp_extract_all(text, '\\w+')`` exactly (same regex
    engine).
    """
    import ray

    from .._util import hash_exchange

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch.column(text_col), r"\W+")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64()),
                         "_k": _int_key(vc.field("values"))})

    def merge(t: pa.Table) -> pa.Table:
        out = (pa.TableGroupBy(t.select(["token", "n"]), "token")
               .aggregate([("n", "sum")]))
        # select by NAME: the keys-first column order of TableGroupBy
        # output is a pyarrow implementation detail that has flipped
        # across releases (ADVICE.md) — a positional rename would
        # silently swap token/count meanings
        return _top_counts(pa.table({"token": out.column("token"),
                                     "n": out.column("n_sum")}), k)

    counts = hash_exchange([(docs_ds, partial)], ["_k"], merge)
    top = _top_counts(pa.concat_tables(ray.get(counts.to_arrow_refs())), k)
    return top.append_column(
        "rank", pa.array(np.arange(1, len(top) + 1, dtype=np.int64)))


def topk_per_group(ds, group_col: str, order_col: str, k: int,
                   id_col: str, descending: bool = True):
    """Top-k rows per group with deterministic ordering
    (``order_col`` desc/asc, ties -> ``id_col`` asc), emitted with a
    per-group ``rank`` column (1-based).

    Two-stage: each block first prunes LOCALLY to its own per-group
    top-k (map-side combining — the exchange carries at most
    k × groups-per-block rows), then each exchange group prunes again
    and ranks. Scales with the number of groups, not rows.
    """
    from .._util import hash_exchange

    def _order_key(v: np.ndarray) -> np.ndarray:
        """Exact order-reversing key for descending sorts: bitwise NOT
        for integers (monotone, no overflow at int64 extremes — the
        float64 ``-1.0 * v`` trick loses exactness above 2^53 and could
        make the map-side prune disagree with the exact final sort,
        ADVICE.md), plain negation for floats."""
        if not descending:
            return v
        return np.invert(v) if v.dtype.kind in "iu" else -v

    def prune(t: pa.Table):
        """t's top-k rows of each group, in (group, order, id) order,
        and their 1-based ranks."""
        g = t.column(group_col).to_numpy()
        v = t.column(order_col).to_numpy()
        i = t.column(id_col).to_numpy()
        order = np.lexsort((i, _order_key(v), g))
        gs = g[order]
        starts = np.r_[0, np.flatnonzero(gs[1:] != gs[:-1]) + 1]
        pos_in_group = np.arange(len(gs)) - np.repeat(
            starts, np.diff(np.r_[starts, len(gs)]))
        keep = pos_in_group < k
        return t.take(pa.array(order[keep])), pos_in_group[keep] + 1

    def pre(t: pa.Table) -> pa.Table:
        top, _ = prune(t)
        return top.append_column("_k", _int_key(top.column(group_col)))

    def merge(t: pa.Table) -> pa.Table:
        top, rank = prune(t.drop_columns(["_k"]))
        return top.append_column("rank", pa.array(rank, pa.int64()))

    return hash_exchange([(ds, pre)], ["_k"], merge)
