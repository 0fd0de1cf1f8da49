"""Multimodal column handling: image/audio/video as opaque binary
columns with typed metadata, processed by map_batches stages that run
as tasks: each stage is a callable built once on the driver.

The container has no image/audio codecs (no PIL/ffmpeg), so the *decode
kernels* are fakes: `MediaFeaturizer` and `MediaResizer` parse and
rewrite our synthetic page format deterministically. The
Ray-side plumbing — binary schema, small batch sizes for wide rows,
stage signature, output layout — is real and tested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from . import extractors, fixtures


def media_table(docs: rd.Dataset, seed: int = fixtures.DEFAULT_SEED) -> rd.Dataset:
    """documents → (doc_id, media_ref, kind, payload:binary): the opaque
    binary column + typed metadata layout. Payloads are materialized
    inside the map stage (never on the driver); batches stay small
    because rows are wide."""

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # flatten + filter with Arrow kernels (no python over span
        # lists); python only touches the media rows for the fetch call
        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = pc.list_flatten(spans)
        parent = pc.list_parent_indices(spans)
        kinds = flat.field("kind")
        mask = pc.is_in(kinds, value_set=pa.array(["pdf", "image"]))
        doc_ids = pc.filter(pc.take(t.column("doc_id"), parent), mask)
        refs = pc.filter(flat.field("media_ref"), mask)
        kinds = pc.filter(kinds, mask)
        payloads = [fixtures.media_store(r, seed) for r in refs.to_pylist()]
        return pa.table({"doc_id": pc.cast(doc_ids, pa.string()),
                         "media_ref": refs,
                         "kind": kinds,
                         "payload": pa.array(payloads, type=pa.binary())})

    return docs.map_batches(fn, batch_format="pyarrow", batch_size=64)


class MediaFeaturizer:
    """Decode/feature-extract stage. Construction (codec init / model
    load) happens once, on the driver; __call__ per batch.
    Fake-decode path: parse the synthetic page format into features
    (n_pages, n_runs, text_bytes, feature sketch vector)."""

    def __init__(self, feature_dim: int = 8) -> None:
        self.feature_dim = feature_dim

    def __call__(self, t: pa.Table) -> pa.Table:
        n_pages_l, n_runs_l, text_bytes_l, feats, errors = [], [], [], [], []
        for payload in t.column("payload").to_pylist():
            try:
                pages = extractors.parse_pages(payload)
                n_runs = sum(len(r) for _f, r in pages)
                tb = sum(len(txt.encode()) for _f, r in pages for _x, _y, txt in r)
                # deterministic "embedding": byte histogram folded to dim
                h = np.zeros(self.feature_dim, dtype=np.float32)
                arr = np.frombuffer(payload, dtype=np.uint8)
                np.add.at(h, arr % self.feature_dim, 1.0)
                n = float(np.linalg.norm(h)) or 1.0
                n_pages_l.append(len(pages))
                n_runs_l.append(n_runs)
                text_bytes_l.append(tb)
                feats.append((h / n).tolist())
                errors.append("")
            except extractors.MediaFormatError as exc:
                n_pages_l.append(0)
                n_runs_l.append(0)
                text_bytes_l.append(0)
                feats.append([0.0] * self.feature_dim)
                errors.append(f"decode failed: {exc}")
        return pa.table({
            "media_ref": t.column("media_ref"),
            "kind": t.column("kind"),
            "n_pages": pa.array(n_pages_l, type=pa.int32()),
            "n_runs": pa.array(n_runs_l, type=pa.int32()),
            "text_bytes": pa.array(text_bytes_l, type=pa.int64()),
            "features": pa.array(feats, type=pa.list_(pa.float32())),
            "error": pa.array(errors, type=pa.string()),
        })


def featurize_media(media: rd.Dataset, feature_dim: int = 8,
                    batch_size: int = 64) -> rd.Dataset:
    return media.map_batches(MediaFeaturizer(feature_dim),
                             batch_format="pyarrow", batch_size=batch_size)


def frame_sample(media: rd.Dataset, every_n: int = 2) -> rd.Dataset:
    """Frame/page sampling: keep every n-th page of each payload —
    re-serialized per-page blobs (the video-frame-sample analog on the
    synthetic page format). Kernel exposed as frame_sample_table so
    the serial checksum oracle replays the exact same code path."""
    return media.map_batches(
        lambda t: frame_sample_table(t, every_n),
        batch_format="pyarrow", batch_size=32)


def frame_sample_table(t: pa.Table, every_n: int = 2) -> pa.Table:
    refs, kinds, pages_out, blobs = [], [], [], []
    for ref, kind, payload in zip(t.column("media_ref").to_pylist(),
                                  t.column("kind").to_pylist(),
                                  t.column("payload").to_pylist()):
        try:
            singles = extractors.split_payload(payload)
        except extractors.MediaFormatError:
            continue
        for i, blob in enumerate(singles, start=1):
            if (i - 1) % every_n == 0:
                refs.append(ref)
                kinds.append(kind)
                pages_out.append(i)
                blobs.append(blob)
    return pa.table({"media_ref": pa.array(refs, type=pa.string()),
                     "kind": pa.array(kinds, type=pa.string()),
                     "page_idx": pa.array(pages_out, type=pa.int32()),
                     "payload": pa.array(blobs, type=pa.binary())})


class MediaResizer:
    """Resize/downscale stage — the image-resize analog on
    the synthetic page format (a real codec would decode → resize →
    re-encode here with the same signature). Deterministic transform:
    run coordinates are scaled by 1/factor and each page keeps at most
    max_runs runs, then the payload is re-serialized — output is a
    genuinely smaller binary with the same schema, so downstream stages
    are exercised for real."""

    def __init__(self, factor: int = 2, max_runs: int = 4) -> None:
        self.factor, self.max_runs = factor, max_runs

    def __call__(self, t: pa.Table) -> pa.Table:
        refs, kinds, orig_b, new_b, payloads, errors = [], [], [], [], [], []
        for ref, kind, payload in zip(t.column("media_ref").to_pylist(),
                                      t.column("kind").to_pylist(),
                                      t.column("payload").to_pylist()):
            refs.append(ref)
            kinds.append(kind)
            orig_b.append(len(payload))
            try:
                pages = extractors.parse_pages(payload)
            except extractors.MediaFormatError as exc:
                new_b.append(0)
                payloads.append(b"")
                errors.append(f"decode failed: {exc}")
                continue
            shrunk = []
            for flags, runs in pages:
                kept = [(x // self.factor, y // self.factor, txt)
                        for x, y, txt in runs[:self.max_runs]]
                shrunk.append((flags, kept))
            magic = payload[:4]
            out = fixtures.serialize_pages(magic, shrunk)
            new_b.append(len(out))
            payloads.append(out)
            errors.append("")
        return pa.table({
            "media_ref": pa.array(refs, type=pa.string()),
            "kind": pa.array(kinds, type=pa.string()),
            "orig_bytes": pa.array(orig_b, type=pa.int64()),
            "resized_bytes": pa.array(new_b, type=pa.int64()),
            "payload": pa.array(payloads, type=pa.binary()),
            "error": pa.array(errors, type=pa.string()),
        })


def resize_media(media: rd.Dataset, factor: int = 2, max_runs: int = 4,
                 batch_size: int = 64) -> rd.Dataset:
    return media.map_batches(MediaResizer(factor, max_runs),
                             batch_format="pyarrow", batch_size=batch_size)


def payload_dedup(media: rd.Dataset) -> rd.Dataset:
    """Exact media-payload dedup across refs: hash the binary payload
    INSIDE the map stage (bytes never reach the driver or the shuffle —
    only (ref, kind, hash, nbytes) rows move), then collapse each
    content hash to its keeper = the lexicographically smallest
    media_ref, with a copy count. The image/audio dedup step of a
    multimodal corpus build; at 100 TB the exchange carries one small
    row per media object, not the object.

    Returns (payload_sha, kind, keeper_ref, n_copies, nbytes) —
    n_copies counts referencing span rows (the same ref in two docs is
    two copies)."""
    import hashlib

    from .relops import partial_aggregate

    def h(t: pa.Table) -> pa.Table:
        payloads = t.column("payload").to_pylist()
        return pa.table({
            "payload_sha": pa.array(
                [hashlib.sha1(p).hexdigest() for p in payloads],
                type=pa.string()),
            "kind": t.column("kind"),
            "media_ref": t.column("media_ref"),
            "nbytes": pa.array([len(p) for p in payloads], type=pa.int64()),
        })

    hashed = media.map_batches(h, batch_format="pyarrow", batch_size=64)
    agg = partial_aggregate(hashed, ["payload_sha", "kind"],
                            {"keeper_ref": ("min", "media_ref"),
                             "n_copies": ("count", None),
                             "nbytes": ("min", "nbytes")})
    return agg.map_batches(
        lambda df: df.astype({"n_copies": "int64", "nbytes": "int64"}),
        batch_format="pandas")


#: interleaved-sequence packing constants: per-media token surcharge
#: (the placeholder/patch budget an MLLM spends per image) and the
#: training-sequence token budget.
MM_TOKENS_PER_MEDIA = 16
MM_SEQ_BUDGET = 64


def interleaved_pack(extracted: rd.Dataset,
                     seq_budget: int = MM_SEQ_BUDGET,
                     media_tokens: int = MM_TOKENS_PER_MEDIA) -> rd.Dataset:
    """Interleaved text+media sequence packing (the MMC4 / Flamingo-
    style layout step, public method): greedily pack each document's
    extracted spans IN ORDER into training sequences of at most
    ``seq_budget`` tokens, where a span costs its whitespace token
    count plus ``media_tokens`` if it references media; a span larger
    than the whole budget occupies its own sequence (spans are atoms —
    an image cannot be split). Per-doc rollup out:
    (doc_id, n_seqs, n_spans, n_media, n_text_tokens).

    Order is the extraction's reading order, so this composes directly
    with the flagship reassembly. Zero-copy Arrow throughout: span
    structs flatten with list kernels (never materialized as python
    dicts), token counts come from utf8_split_whitespace (counting the
    NON-EMPTY pieces — exactly python str.split()'s semantics, which
    the oracle uses), and only the inherently-sequential greedy reset
    scan is a python loop, over numpy scalars."""
    import numpy as np

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.combine_chunks()
        spans = t.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        ndocs = len(t)
        parent = pc.list_parent_indices(spans).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(spans)
        nsp = len(flat)
        if nsp == 0:  # all-empty span lists infer as list<null> blocks
            z = pa.array(np.zeros(ndocs, dtype=np.int64), type=pa.int64())
            return pa.table({"doc_id": t.column("doc_id"), "n_seqs": z,
                             "n_spans": z, "n_media": z,
                             "n_text_tokens": z})
        kinds = flat.field("kind")
        texts = flat.field("text")
        # python-split-equivalent token counts: arrow's whitespace
        # split emits empty pieces at string edges; count non-empty
        sw = pc.utf8_split_whitespace(texts)
        pieces = pc.list_flatten(sw)
        pparent = pc.list_parent_indices(sw).to_numpy(
            zero_copy_only=False).astype(np.int64)
        nonempty = pc.not_equal(pieces, "").to_numpy(zero_copy_only=False)
        toks = np.bincount(pparent[nonempty], minlength=nsp
                           ).astype(np.int64) if nsp else np.zeros(
                               0, dtype=np.int64)
        media = pc.is_in(kinds, value_set=pa.array(["pdf", "image"])
                         ).to_numpy(zero_copy_only=False)
        cost = toks + media.astype(np.int64) * media_tokens

        n_spans = np.bincount(parent, minlength=ndocs).astype(np.int64)
        n_media = np.bincount(parent[media], minlength=ndocs
                              ).astype(np.int64) if media.any() else \
            np.zeros(ndocs, dtype=np.int64)
        n_text = (np.bincount(parent, weights=toks, minlength=ndocs)
                  .astype(np.int64))
        # greedy budget resets — sequential by definition; one pass
        # over the flat span arrays (spans of a doc are contiguous)
        n_seqs = np.zeros(ndocs, dtype=np.int64)
        cur = 0
        prev = -1
        cl = cost.tolist()
        pl = parent.tolist()
        for i in range(nsp):
            d = pl[i]
            if d != prev:
                cur = 0
                prev = d
            c = cl[i]
            if cur == 0 or cur + c > seq_budget:
                n_seqs[d] += 1
                cur = c
            else:
                cur += c
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_seqs": pa.array(n_seqs, type=pa.int64()),
            "n_spans": pa.array(n_spans, type=pa.int64()),
            "n_media": pa.array(n_media, type=pa.int64()),
            "n_text_tokens": pa.array(n_text, type=pa.int64()),
        })

    return extracted.map_batches(fn, batch_format="pyarrow")
