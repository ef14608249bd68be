"""Multimodal-column stages: image/audio/video as opaque ``binary`` columns
with typed metadata, processed by actor-pool ``map_batches`` stages.

The crawl's own image path (``CrawlProcessStage._process_images`` in
stages/process.py) uses the real PNG codec and deterministic lossy
stand-ins. The stages here are the GENERIC plumbing a
training-data pipeline needs over arbitrary media blobs:

- ``ImageResizeStage`` — decode → resize → re-encode (REAL for the formats
  codecs.py supports; nearest-neighbour resample).
- ``AudioFeatureStage`` — REAL for WAV/RIFF PCM (stdlib ``wave``; 8/16/32
  bit, multi-channel downmixed), plus the deterministic FAUD fixture
  container; compressed formats decode via soundfile when its wheel is
  present (``HAVE_SOUNDFILE`` import gate), else raise clearly.
- ``VideoFrameSampleStage`` — the Ray-side plumbing (schema, batch sizing,
  actor signature, flat-map output layout) is real and tested; real
  containers decode via PyAV when present (``HAVE_PYAV`` import gate,
  streaming frame iterator — never the whole clip in memory), else only
  the deterministic FVID fixture container is supported.

All stages take/return Arrow batches (``batch_format='pyarrow'``) and are
meant for SMALL ``batch_size`` — rows carry media payloads (SURVEY.md §7.5
wide-binary-row guidance).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from crawler_ray.functions.codecs import decode_image, encode_image, sniff_fmt

# deterministic fake containers for tests (no media libs in this sandbox)
FAKE_AUDIO_MAGIC = b"FAUD"  # FAKE header: FAUD + u32 n_samples + u16 rate/100
FAKE_VIDEO_MAGIC = b"FVID"  # FAKE header: FVID + u16 n_frames + u8 w + u8 h

# optional real codecs, gated on import: a cluster that HAS the wheel gets
# the real decode with zero code changes;
# this sandbox (no PyAV/soundfile) falls through to the fixture containers
try:  # pragma: no cover - absent in this sandbox
    import av as _av  # noqa: F401

    HAVE_PYAV = True
except ImportError:
    HAVE_PYAV = False

try:  # pragma: no cover - absent in this sandbox
    import soundfile as _soundfile  # noqa: F401

    HAVE_SOUNDFILE = True
except ImportError:
    HAVE_SOUNDFILE = False


def make_fake_audio(n_samples: int, rate: int, seed: int = 0) -> bytes:
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = (rng.standard_normal(n_samples) * 1000).astype(np.int16)
    return FAKE_AUDIO_MAGIC + struct.pack(">IH", n_samples, rate // 100) + samples.tobytes()


def make_fake_video(n_frames: int, w: int, h: int, seed: int = 0) -> bytes:
    rng = np.random.Generator(np.random.PCG64(seed))
    frames = rng.integers(0, 256, (n_frames, h, w, 3), dtype=np.uint8)
    return FAKE_VIDEO_MAGIC + struct.pack(">HBB", n_frames, w, h) + frames.tobytes()


def _decode_audio(data: bytes) -> tuple[np.ndarray, int]:
    """Audio decode: REAL for WAV/RIFF (stdlib ``wave`` — PCM 8/16/32-bit,
    mono or multi-channel downmixed to mono), plus the deterministic FAUD
    fixture container. Compressed formats (mp3/ogg/flac) would need
    soundfile/ffmpeg — absent in this sandbox — and raise with a clear
    message."""
    if data[:4] == FAKE_AUDIO_MAGIC:
        n, rate100 = struct.unpack(">IH", data[4:10])
        samples = np.frombuffer(data[10 : 10 + 2 * n], dtype=np.int16)
        return samples, rate100 * 100
    if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
        import io
        import wave

        with wave.open(io.BytesIO(data), "rb") as w:
            sr = w.getframerate()
            n_ch = w.getnchannels()
            width = w.getsampwidth()
            raw = w.readframes(w.getnframes())
        if width == 2:
            samples = np.frombuffer(raw, dtype="<i2").astype(np.int32)
        elif width == 1:  # unsigned 8-bit → centre on 0
            samples = np.frombuffer(raw, dtype=np.uint8).astype(np.int32) - 128
        elif width == 4:
            samples = np.frombuffer(raw, dtype="<i4")
        else:
            raise NotImplementedError(f"unsupported WAV sample width {width}")
        if n_ch > 1:  # downmix to mono
            samples = samples[: len(samples) - len(samples) % n_ch]
            samples = samples.reshape(-1, n_ch).mean(axis=1).astype(np.int32)
        return samples.astype(np.int16 if width <= 2 else np.int32), sr
    if HAVE_SOUNDFILE:  # pragma: no cover - wheel absent in this sandbox
        import io

        import soundfile as sf

        data_f, sr = sf.read(io.BytesIO(data), dtype="float64", always_2d=True)
        mono = data_f.mean(axis=1)
        return np.clip(mono * 32767.0, -32768, 32767).astype(np.int16), int(sr)
    raise NotImplementedError(
        "compressed audio decoding requires soundfile/ffmpeg — not available "
        "in this environment; WAV (RIFF PCM) and the FAUD fixture container "
        "are decoded natively"
    )


def _decode_video(data: bytes) -> np.ndarray:
    """Video decode → (n_frames, h, w, 3) uint8 RGB. Real containers
    (mp4/mkv/webm/…) decode via PyAV when its wheel is present
    (``HAVE_PYAV`` import gate — a real cluster needs no code change);
    the deterministic FVID fixture container decodes natively. With
    neither, raises with a clear message (this sandbox ships no PyAV)."""
    if data[:4] == FAKE_VIDEO_MAGIC:
        n, w, h = struct.unpack(">HBB", data[4:8])
        return np.frombuffer(data[8 : 8 + n * h * w * 3], dtype=np.uint8).reshape(
            n, h, w, 3
        )
    if HAVE_PYAV:  # pragma: no cover - wheel absent in this sandbox
        import io

        import av

        frames = []
        with av.open(io.BytesIO(data)) as container:
            for frame in container.decode(video=0):
                frames.append(frame.to_ndarray(format="rgb24"))
        if not frames:
            raise ValueError("video stream decoded to zero frames")
        return np.stack(frames)
    raise NotImplementedError(
        "real video decoding requires PyAV/ffmpeg — not available in this "
        "environment; only the deterministic FVID fixture container is supported"
    )


def _iter_video_frames(data: bytes):
    """Streaming frame iterator — yields (h, w, 3) uint8 frames one at a
    time so a sampling stage never materializes the whole clip (a real
    60 fps video is GBs decoded; holding every frame per row would blow
    the worker heap at production batch sizes)."""
    if data[:4] == FAKE_VIDEO_MAGIC:
        n, w, h = struct.unpack(">HBB", data[4:8])
        frame_sz = h * w * 3
        for i in range(n):
            yield np.frombuffer(
                data[8 + i * frame_sz : 8 + (i + 1) * frame_sz], dtype=np.uint8
            ).reshape(h, w, 3)
        return
    if HAVE_PYAV:  # pragma: no cover - wheel absent in this sandbox
        import io

        import av

        with av.open(io.BytesIO(data)) as container:
            for frame in container.decode(video=0):
                yield frame.to_ndarray(format="rgb24")
        return
    raise NotImplementedError(
        "real video decoding requires PyAV/ffmpeg — not available in this "
        "environment; only the deterministic FVID fixture container is supported"
    )


def _resize_nn(px: np.ndarray, w: int, h: int) -> np.ndarray:
    ys = (np.arange(h) * px.shape[0] // h).clip(0, px.shape[0] - 1)
    xs = (np.arange(w) * px.shape[1] // w).clip(0, px.shape[1] - 1)
    return px[np.ix_(ys, xs)]


class ImageResizeStage:
    """bytes → decode → resize to (target_w, target_h) → re-encode.
    Real end-to-end for png/jpeg/webp stand-ins."""

    def __init__(self, target_w: int = 16, target_h: int = 16):
        self.tw = target_w
        self.th = target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_bytes, out_w, out_h = [], [], []
        for data in batch["bytes"].to_pylist():
            fmt = sniff_fmt(data)
            px = decode_image(data, fmt)
            rs = _resize_nn(px, self.tw, self.th)
            out_bytes.append(encode_image(np.ascontiguousarray(rs), fmt))
            out_w.append(self.tw)
            out_h.append(self.th)
        return (
            batch.drop_columns([c for c in ("bytes", "w", "h") if c in batch.column_names])
            .append_column("bytes", pa.array(out_bytes, pa.binary()))
            .append_column("w", pa.array(out_w, pa.int32()))
            .append_column("h", pa.array(out_h, pa.int32()))
        )


class AudioFeatureStage:
    """audio bytes → (duration_sec, rms, sample_rate). WAV/RIFF-PCM decode
    is real (stdlib ``wave``); compressed formats need external codecs."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        dur, rms, rate = [], [], []
        for data in batch["audio"].to_pylist():
            samples, sr = _decode_audio(data)
            dur.append(round(len(samples) / sr, 4))
            rms.append(round(float(np.sqrt(np.mean(samples.astype(np.float64) ** 2))), 4))
            rate.append(sr)
        return (
            batch.drop_columns(["audio"])
            .append_column("duration_sec", pa.array(dur, pa.float64()))
            .append_column("rms", pa.array(rms, pa.float64()))
            .append_column("sample_rate", pa.array(rate, pa.int32()))
        )


class VideoFrameSampleStage:
    """video bytes → every k-th frame re-encoded as PNG rows (flat_map-shaped:
    one input row → n output rows)."""

    def __init__(self, every_k: int = 2):
        self.k = every_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids, frames_idx, frame_bytes = [], [], []
        ids = (
            batch["video_id"].to_pylist()
            if "video_id" in batch.column_names
            else [hashlib.md5(b).hexdigest() for b in batch["video"].to_pylist()]
        )
        for vid, data in zip(ids, batch["video"].to_pylist()):
            # streaming decode: only every k-th frame is ever held/encoded
            for i, frame in enumerate(_iter_video_frames(data)):
                if i % self.k:
                    continue
                vids.append(vid)
                frames_idx.append(i)
                frame_bytes.append(encode_image(np.ascontiguousarray(frame), "png"))
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(frames_idx, pa.int32()),
                "frame_png": pa.array(frame_bytes, pa.binary()),
            }
        )


class ImageStatsStage:
    """bytes → decode → per-image pixel statistics: channel-mean luminance,
    contrast (luma std), and an 8-bit-histogram entropy. The LAION-style
    *decoded-pixel* quality gate (`pipelines/packing.filter_images` gates on
    METADATA only; this stage gates on content — near-uniform images are
    tracking pixels/placeholders, near-zero-entropy ones are blanks).

    Decode is per-row by nature (codecs are per-buffer); the stats are
    vectorized numpy per image. Batch-local — zero exchanges; at 100 TB
    size batches so decode memory (w*h*3 per row) x batch_size fits the
    worker heap."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        lum_mean, lum_std, entropy = [], [], []
        for data in batch["bytes"].to_pylist():
            px = decode_image(data, sniff_fmt(data)).astype(np.float64)
            # ITU-R BT.601 luma
            luma = px[..., 0] * 0.299 + px[..., 1] * 0.587 + px[..., 2] * 0.114
            lum_mean.append(float(luma.mean()))
            lum_std.append(float(luma.std()))
            hist = np.bincount(
                np.clip(luma, 0, 255).astype(np.uint8).ravel(), minlength=256
            )
            p = hist[hist > 0] / luma.size
            entropy.append(float(-(p * np.log2(p)).sum()))
        return (
            batch.append_column("lum_mean", pa.array(lum_mean, pa.float64()))
            .append_column("lum_std", pa.array(lum_std, pa.float64()))
            .append_column("entropy", pa.array(entropy, pa.float64()))
        )


def filter_images_by_content(
    ds, min_std: float = 2.0, min_entropy: float = 1.0
):
    """Decoded-pixel quality gate: drop near-uniform (placeholder/tracking)
    and near-zero-entropy (blank) images. Composes with the metadata gate
    in ``packing.filter_images``; stats columns stay on the output for
    downstream reporting."""
    import pyarrow.compute as pc_

    def gate(t: pa.Table) -> pa.Table:
        keep = pc_.and_(
            pc_.greater_equal(t["lum_std"], min_std),
            pc_.greater_equal(t["entropy"], min_entropy),
        )
        return t.filter(keep)

    return ds.map_batches(ImageStatsStage(), batch_format="pyarrow").map_batches(
        gate, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# CLIP-style image-caption alignment gate (LAION filtering archetype)


def _sig_to_unit(sig: np.ndarray) -> np.ndarray:
    """(n, 16) uint8 signatures → centered unit vectors (the shared last
    layer of both fake towers)."""
    v = sig.astype(np.float64) - 127.5
    n = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(n == 0, 1.0, n)


def caption_tower(captions) -> np.ndarray:
    """Text tower of the alignment stand-in: md5 of the caption → 16-byte
    signature → unit vector. Deterministic fake for a CLIP text encoder
    (no model weights in this sandbox); vectorized per batch."""
    sig = np.frombuffer(
        b"".join(hashlib.md5(c.encode("utf-8")).digest() for c in captions),
        dtype=np.uint8,
    ).reshape(-1, 16)
    return _sig_to_unit(sig)


def _load_real_towers():
    """Optional REAL two-tower path, feature-gated on import: when
    ``CRAWLER_RAY_CLIP_MODEL`` names an open_clip model spec
    (``"ViT-B-32:laion2b_s34b_b79k"`` or ``"<arch>:<checkpoint path>"``)
    AND torch + open_clip are importable, returns
    ``(image_tower, text_tower)`` — both mapping a batch to L2-normalized
    float64 embedding rows. Returns ``None`` otherwise, so the
    deterministic fakes stay the sandbox path with zero config. Called
    lazily inside the actor (model load is per-actor ``__init__``-time
    work, never per batch, and never pickled with the stage)."""
    import os

    spec = os.environ.get("CRAWLER_RAY_CLIP_MODEL")
    if not spec:
        return None
    try:  # pragma: no cover - wheels absent in this sandbox
        import open_clip
        import torch
    except ImportError:
        return None

    name, _, pretrained = spec.partition(":")  # pragma: no cover
    model, _, preprocess = open_clip.create_model_and_transforms(
        name, pretrained=pretrained or None
    )
    tokenizer = open_clip.get_tokenizer(name)
    model.eval()

    def image_tower(px_list) -> np.ndarray:
        from PIL import Image

        with torch.no_grad():
            batch = torch.stack(
                [preprocess(Image.fromarray(p)) for p in px_list]
            )
            feats = model.encode_image(batch)
            feats = feats / feats.norm(dim=-1, keepdim=True)
        return feats.cpu().numpy().astype(np.float64)

    def text_tower(captions) -> np.ndarray:
        with torch.no_grad():
            feats = model.encode_text(tokenizer(list(captions)))
            feats = feats / feats.norm(dim=-1, keepdim=True)
        return feats.cpu().numpy().astype(np.float64)

    return image_tower, text_tower


class ImageCaptionAlignStage:
    """Two-tower alignment scoring over (bytes, caption) rows — the
    LAION/DataComp CLIP-score gate. The image tower DECODES the pixels
    (real codec path) and reads the 16-byte caption signature the synthetic
    generator watermarks into row 0 (a clearly-declared deterministic fake
    for a vision encoder: aligned pairs score ~1, mismatched ~0, exactly
    the separation a real CLIP gives a planted-mismatch fixture). The
    plumbing — actor-pool decode, batched two-tower scoring, threshold
    column — is the real pipeline; when ``CRAWLER_RAY_CLIP_MODEL`` is set
    and torch/open_clip are installed (``_load_real_towers``), the real
    encoders replace the fakes with zero code change.

    Input rows: (image_id:string, bytes:binary, fmt:string,
    caption:string); output adds clip_score:double, aligned:bool."""

    def __init__(self, tau: float = 0.9):
        self.tau = tau
        # resolved once per actor on first batch (model load is init-time
        # work; the loaded towers are never pickled with the stage)
        self._towers: tuple | None = None
        self._resolved = False

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self._resolved:
            self._towers = _load_real_towers()
            self._resolved = True
        caps = batch["caption"].to_pylist()
        raw = zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        if self._towers is not None:
            # real towers batch their inference, so the decoded batch must
            # be materialized — batch_size (256) bounds the resident pixels
            pixels = [
                decode_image(data, fmt or sniff_fmt(data)) for data, fmt in raw
            ]
            image_tower, text_tower = self._towers
            i_emb = image_tower(pixels)
            t_emb = text_tower(caps)
        else:
            # deterministic fakes: watermark signature row ↔ caption md5.
            # Decode one image at a time — only the 16-byte signature is
            # kept, never the whole batch's pixel arrays.
            t_emb = caption_tower(caps)
            sigs = np.empty((batch.num_rows, 16), np.uint8)
            for i, (data, fmt) in enumerate(raw):
                px = decode_image(data, fmt or sniff_fmt(data))
                sigs[i] = px[0, :16, 0] if px.shape[1] >= 16 else 0
            i_emb = _sig_to_unit(sigs)
        score = np.einsum("ij,ij->i", i_emb, t_emb)
        return batch.append_column(
            "clip_score", pa.array(score, pa.float64())
        ).append_column("aligned", pa.array(score >= self.tau, pa.bool_()))


def image_caption_alignment(
    sf_dir: str, tau: float = 0.9, seed: int = 42
) -> "object":
    """LAION/DataComp-style image-caption ALIGNMENT GATE over a synthesized
    (image, caption) corpus: one watermarked PNG + caption per documents-row
    doc_id (the sandbox stand-in for the crawl's Lance images table), with
    planted MISMATCHES — doc_id % 10 == 7 carries its neighbor's
    caption, exactly the noise a crawled alt-text corpus contains. The
    actor-pool :class:`ImageCaptionAlignStage` decodes and scores each pair;
    output is (image_id, clip_score, aligned). Rows-only driver check
    (pixel synthesis + towers are not SQL-expressible); planted-truth
    separation asserted in tests.

    Small ``batch_size`` on the scoring stage — rows carry encoded image
    payloads (wide-binary-row guidance, SURVEY.md §7.5)."""
    import ray.data as rd  # noqa: F401

    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_bytes, out_caps = planted_image_batch(
            ids, seed, mismatch=True, watermark=True
        )
        return pa.table(
            {"image_id": pa.array([str(int(d)) for d in ids], pa.string()),
             "bytes": pa.array(out_bytes, pa.binary()),
             "fmt": pa.array(["png"] * len(ids), pa.string()),
             "caption": pa.array(out_caps, pa.string())}
        )

    return (
        docs.map_batches(synth, batch_format="pyarrow", batch_size=256)
        .map_batches(
            # the CLASS, not an instance: Ray Data runs instance callables
            # in task mode (fresh unpickle per block, so a real CLIP model
            # would reload per block); the class + constructor args form is
            # the actor-pool path where _load_real_towers runs once per actor
            ImageCaptionAlignStage,
            fn_constructor_args=(tau,),
            batch_format="pyarrow",
            batch_size=256,
            concurrency=(1, 2),
        )
        .select_columns(["image_id", "clip_score", "aligned"])
    )


# ---------------------------------------------------------------------------
# Flagship image-corpus curation chain (DataComp/LAION-style filtering)
# ---------------------------------------------------------------------------


class _CurationExtract:
    """ONE decode per image feeding all three curation signals — alignment
    score (caption-signature tower), luma quality stats, DCT phash. Decode
    dominates the cost, so the extractors share it instead of re-decoding
    per gate; actor state is just the thresholds."""

    def __init__(self, tau: float):
        self.tau = tau

    def __call__(self, batch: pa.Table) -> pa.Table:
        from crawler_ray.functions.hashing import phash64

        caps = batch["caption"].to_pylist()
        t_emb = caption_tower(caps)
        n = batch.num_rows
        sigs = np.empty((n, 16), np.uint8)
        lum_std = np.empty(n, np.float64)
        entropy = np.empty(n, np.float64)
        ph = np.empty(n, np.int64)
        w_lum = np.array([0.299, 0.587, 0.114])
        for i, (data, fmt) in enumerate(
            zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())
        ):
            px = decode_image(data, fmt or sniff_fmt(data))
            sigs[i] = px[0, :16, 0] if px.shape[1] >= 16 else 0
            lum = px.astype(np.float64) @ w_lum
            lum_std[i] = lum.std()
            hist = np.histogram(lum, bins=32, range=(0.0, 256.0))[0]
            p = hist[hist > 0] / lum.size
            entropy[i] = float(-(p * np.log2(p)).sum())
            ph[i] = phash64(px)
        score = np.einsum("ij,ij->i", _sig_to_unit(sigs), t_emb)
        return pa.table(
            {"image_id": batch["image_id"],
             "clip_score": pa.array(score, pa.float64()),
             "lum_std": pa.array(lum_std, pa.float64()),
             "entropy": pa.array(entropy, pa.float64()),
             "phash": pa.array(ph, pa.int64())}
        )


def image_corpus_curation(
    sf_dir: str,
    tau: float = 0.9,
    min_std: float = 20.0,
    min_entropy: float = 2.0,
    max_hamming: int = 4,
    seed: int = 42,
    n_parts: int = 16,
) -> "object":
    """Flagship IMAGE-corpus curation — the image-axis twin of
    ``curation.corpus_curation``: alignment gate → decoded-pixel quality
    gate → phash near-dup keep-one, with a per-image verdict and the FIRST
    failing reason ('misaligned' | 'low_quality' | 'duplicate' | '' keep) —
    the attributable filtering report a DataComp/LAION-style run publishes.

    Corpus: one watermarked PNG + caption per documents doc_id with planted
    failures — doc_id % 10 == 7 carries its neighbor's caption (misaligned),
    % 10 == 3 is near-uniform below the quality gate, % 10 == 1 duplicates
    its neighbor's pixels+caption exactly, % 10 == 6 is a perturbed copy
    (phash Hamming ≤ 2). Planted-truth verdicts asserted exactly in tests;
    rows-only driver check.

    Shape: ONE decode per image feeds the fused signal extractor; the slim
    signal table (5 scalar columns, no bytes) is materialized once and
    re-used by both consumers; only gate-1/2 SURVIVORS enter the banded
    Hamming pair walk + connected components; one final id-hash exchange
    folds cluster losers into the verdict. No broadcasts, no driver reads."""
    import ray.data as rd

    from crawler_ray.pipelines.clusters import connected_components
    from crawler_ray.pipelines.reports import images_phash_near_dups
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        out_bytes, out_caps = planted_image_batch(
            ids, seed, dup=True, mismatch=True, lowq=True, watermark=True
        )
        return pa.table(
            {"image_id": pa.array([str(int(d)) for d in ids], pa.string()),
             "bytes": pa.array(out_bytes, pa.binary()),
             "fmt": pa.array(["png"] * len(ids), pa.string()),
             "caption": pa.array(out_caps, pa.string())}
        )

    signals = (
        docs.map_batches(synth, batch_format="pyarrow", batch_size=256)
        .map_batches(
            _CurationExtract(tau), batch_format="pyarrow", batch_size=256
        )
        .materialize()  # slim scalar table; feeds two consumers below
    )

    def survivors(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        keep = pc_.and_(
            pc_.greater_equal(t["clip_score"], tau),
            pc_.and_(
                pc_.greater_equal(t["lum_std"], min_std),
                pc_.greater_equal(t["entropy"], min_entropy),
            ),
        )
        return t.filter(keep).select(["image_id", "phash"])

    pairs = images_phash_near_dups(
        signals.map_batches(survivors, batch_format="pyarrow"),
        max_hamming=max_hamming,
    )
    cc = connected_components(
        pairs.map_batches(
            lambda t: pa.table(
                {"img_a": pa.compute.cast(t["img_a"], pa.int64()),
                 "img_b": pa.compute.cast(t["img_b"], pa.int64())}
            ),
            batch_format="pyarrow",
        ),
        src="img_a", dst="img_b",
    )

    _V_SCHEMA = pa.schema(
        [("image_id", pa.int64()), ("clip_score", pa.float64()),
         ("lum_std", pa.float64()), ("entropy", pa.float64()),
         ("loser", pa.bool_()), ("part", pa.int64())]
    )

    def sig_rows(t: pa.Table) -> pa.Table:
        ids = np.array([int(s) for s in t["image_id"].to_pylist()], np.int64)
        return pa.table(
            {"image_id": pa.array(ids, pa.int64()),
             "clip_score": t["clip_score"],
             "lum_std": t["lum_std"],
             "entropy": t["entropy"],
             "loser": pa.nulls(t.num_rows, pa.bool_()),
             "part": pa.array(ids % n_parts, pa.int64())}
        ).cast(_V_SCHEMA)

    def loser_rows(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy(zero_copy_only=False)
        lab = t["lab"].to_numpy(zero_copy_only=False)
        node = node[node != lab]
        return pa.table(
            {"image_id": pa.array(node, pa.int64()),
             "clip_score": pa.nulls(len(node), pa.float64()),
             "lum_std": pa.nulls(len(node), pa.float64()),
             "entropy": pa.nulls(len(node), pa.float64()),
             "loser": pa.array(np.ones(len(node), bool)),
             "part": pa.array(node % n_parts, pa.int64())}
        ).cast(_V_SCHEMA)

    def verdict(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        is_sig = df["loser"].isna()
        sig = df[is_sig]
        losers = set(df.loc[~is_sig, "image_id"].astype(int))
        mis = sig["clip_score"].to_numpy() < tau
        lowq = (sig["lum_std"].to_numpy() < min_std) | (
            sig["entropy"].to_numpy() < min_entropy
        )
        dup = sig["image_id"].astype(int).isin(losers).to_numpy()
        first_fail = np.where(
            mis, "misaligned",
            np.where(lowq, "low_quality", np.where(dup, "duplicate", "")),
        )
        return pa.table(
            {"image_id": pa.array(
                sig["image_id"].to_numpy(np.int64), pa.int64()
             ),
             "keep": pa.array(first_fail == "", pa.bool_()),
             "first_fail": pa.array(first_fail, pa.string())}
        )

    return (
        signals.map_batches(sig_rows, batch_format="pyarrow")
        .union(cc.map_batches(loser_rows, batch_format="pyarrow"))
        .groupby("part")
        .map_groups(verdict, batch_format="pyarrow")
        .select_columns(["image_id", "keep", "first_fail"])
    )


# ---------------------------------------------------------------------------
# Audio near-dup fingerprinting (the audio-side twin of the phash pipeline)


def _pcm16_wav(samples: np.ndarray, rate: int) -> bytes:
    """Minimal RIFF/WAVE PCM16 writer (stdlib only)."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(np.clip(samples, -32768, 32767).astype("<i2").tobytes())
    return buf.getvalue()


def _synth_clip_samples(
    clip_id: int, seed: int, n_frames: int = 64, frame_len: int = 64
) -> np.ndarray:
    """Deterministic clip: a sine carrier under a per-clip random-walk
    amplitude ENVELOPE — the envelope (not the carrier) is what the
    fingerprint sees, so distinct clips get ~independent fingerprints
    while amplitude-scaled copies fingerprint identically."""
    rng = np.random.Generator(np.random.PCG64((seed << 32) ^ clip_id))
    steps = rng.standard_normal(n_frames)
    env = np.abs(np.cumsum(steps)) + 0.15
    env = env / env.max()
    t = np.arange(n_frames * frame_len, dtype=np.float64)
    carrier = np.sin(2 * np.pi * (220.0 + (clip_id % 13) * 11.0) * t / 4000.0)
    wave_f = (env.repeat(frame_len) * carrier) * 0.85
    return (wave_f * 32767).astype(np.int16)


def audio_fingerprint64(samples: np.ndarray, n_frames: int = 64) -> int:
    """64-bit energy-delta fingerprint: the clip splits into ``n_frames``+1
    equal frames; bit i = (rms energy of frame i+1 > frame i). Invariant
    to uniform amplitude scaling (monotone transform preserves every
    comparison) and robust to small additive noise — the audio analogue of
    the image phash's DCT-sign bits."""
    x = samples.astype(np.float64)
    usable = len(x) - len(x) % (n_frames + 1)
    if usable <= 0:
        return 0
    frames = x[:usable].reshape(n_frames + 1, -1)
    e = (frames * frames).mean(axis=1)
    bits = (e[1:] > e[:-1]).astype(np.uint64)
    return int((bits << np.arange(64, dtype=np.uint64)).sum())


def audio_dup_pairs(
    sf_dir: str, max_hamming: int = 4, seed: int = 27
) -> rd.Dataset:
    """AUDIO near-dup pairs: decode → 64-bit energy-delta fingerprint →
    the SAME banded-Hamming single-exchange walk as the image phash
    pipeline (``reports.images_phash_near_dups`` reused verbatim — the
    engine is payload-agnostic once content becomes a 64-bit sign hash).

    The corpus derives deterministically from the documents table's
    doc_ids (the sandbox stand-in for a crawled audio table): one WAV clip
    per doc, with planted SCALED duplicates (doc_id % 10 == 1 is its
    neighbor's clip amplitude-scaled ×0.5 — the energy-delta comparisons
    are scale-invariant up to PCM16 quantization, which may flip a couple
    of near-tie bits, so Hamming stays ≤ ~2) and planted NEAR duplicates
    (doc_id % 10 == 6 adds small noise to its neighbor's clip — a few
    energy-delta signs flip where envelope steps are small). The full real
    plumbing runs per clip: synthesize → PCM16 WAV encode → stdlib decode
    → fingerprint. Rows-only driver check (waveform synthesis is not
    SQL-expressible); planted truths asserted exactly in tests."""
    from crawler_ray.pipelines.reports import images_phash_near_dups
    from crawler_ray.sources.io import read_parquet_sized

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth_fp(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        fps = np.empty(len(ids), np.int64)
        for i, d in enumerate(ids):
            d = int(d)
            if d % 10 == 1 and d > 0:
                samples = (
                    _synth_clip_samples(d - 1, seed).astype(np.float64) * 0.5
                ).astype(np.int16)
            elif d % 10 == 6 and d > 0:
                base = _synth_clip_samples(d - 1, seed).astype(np.float64)
                rng = np.random.Generator(np.random.PCG64(d))
                samples = (base + rng.standard_normal(len(base)) * 350.0).astype(
                    np.int16
                )
            else:
                samples = _synth_clip_samples(d, seed)
            wav = _pcm16_wav(samples, 4000)
            decoded, _sr = _decode_audio(wav)
            fps[i] = np.int64(np.uint64(audio_fingerprint64(decoded)))
        return pa.table(
            {"image_id": pa.array([str(int(d)) for d in ids], pa.string()),
             "phash": pa.array(fps, pa.int64())}
        )

    clips = docs.map_batches(synth_fp, batch_format="pyarrow")
    pairs = images_phash_near_dups(clips, max_hamming=max_hamming)
    return pairs.map_batches(
        lambda t: pa.table(
            {"audio_a": t["img_a"], "audio_b": t["img_b"],
             "hamming": t["hamming"]}
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# aspect-ratio bucketing — the batched-image-training curation step (group
# images into a fixed ladder of aspect buckets so a trainer can batch
# same-shape tensors; SDXL-style). Metadata-only: never decodes a pixel.

# (width_ratio, height_ratio); LCM of the height ratios is 144, used to
# keep the nearest-bucket argmin in exact integer arithmetic
ASPECT_LADDER = [(1, 1), (4, 3), (3, 4), (16, 9), (9, 16), (3, 2), (2, 3)]
_LADDER_LCM = 144


def image_aspect_buckets(sf_dir: str, patch: int = 16) -> "rd.Dataset":
    """Per aspect bucket: image count and total ViT patch count
    (``ceil(w/patch) × ceil(h/patch)`` — the sequence-length budget an
    image-text trainer packs against). Each image snaps to the ladder
    bucket minimizing ``|w/h − a/b|``, computed EXACTLY in integers:
    ``|w·b − h·a| · (LCM/b)`` is a common-denominator cost, ties to the
    lower ladder index — so the SQL twin is value-identical.

    Image dims derive deterministically from doc_id (the sandbox stand-in
    for the crawl's images table metadata — a real run reads (w, h)
    straight from the Lance/parquet footer columns, still zero decode).
    Shape: per-block bucket partials (combiner) → one |ladder|-row fold;
    the exchange is ladder-sized, independent of corpus size."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from crawler_ray.sources.io import read_parquet_sized

    a_arr = np.array([a for a, _ in ASPECT_LADDER], np.int64)
    b_arr = np.array([b for _, b in ASPECT_LADDER], np.int64)
    mult = (_LADDER_LCM // b_arr).astype(np.int64)

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = 64 + (ids * 13) % 192
        h = 64 + (ids * 7) % 192
        # exact integer nearest-bucket: cost[i,j] over n×|ladder|
        cost = np.abs(w[:, None] * b_arr - h[:, None] * a_arr) * mult
        bucket = np.argmin(cost, axis=1).astype(np.int64)  # ties → low index
        patches = ((w + patch - 1) // patch) * ((h + patch - 1) // patch)
        import pandas as pd

        g = (
            pd.DataFrame({"bucket": bucket, "patches": patches})
            .groupby("bucket", sort=False)
            .agg(n_p=("patches", "size"), patches_p=("patches", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "bucket": pa.array(g["bucket"].to_numpy(np.int64), pa.int64()),
                "n_p": pa.array(g["n_p"].to_numpy(np.int64), pa.int64()),
                "patches_p": pa.array(
                    g["patches_p"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            Sum("n_p", alias_name="n_images"),
            Sum("patches_p", alias_name="total_patches"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas().sort_values("bucket", kind="mergesort")
        idx = df["bucket"].to_numpy(np.int64)
        return pa.table(
            {
                "aspect": pa.array(
                    [f"{ASPECT_LADDER[i][0]}:{ASPECT_LADDER[i][1]}" for i in idx],
                    pa.string(),
                ),
                "n_images": pa.array(
                    df["n_images"].to_numpy(np.int64), pa.int64()
                ),
                "total_patches": pa.array(
                    df["total_patches"].to_numpy(np.int64), pa.int64()
                ),
            }
        )

    return agg.repartition(1).map_batches(finish, batch_format="pyarrow",
                                          batch_size=None)


def image_aspect_buckets_sql(patch: int = 16) -> str:
    ladder = ", ".join(
        f"({i}, {a}, {b})" for i, (a, b) in enumerate(ASPECT_LADDER)
    )
    return f"""
WITH dims AS (
    SELECT doc_id,
           64 + (doc_id * 13) % 192 AS w,
           64 + (doc_id * 7) % 192 AS h
    FROM documents
),
ladder(i, a, b) AS (VALUES {ladder}),
scored AS (
    SELECT doc_id, w, h, i, a, b,
           ROW_NUMBER() OVER (
               PARTITION BY doc_id
               ORDER BY ABS(w * b - h * a) * ({_LADDER_LCM} // b), i
           ) AS rn
    FROM dims CROSS JOIN ladder
)
SELECT a || ':' || b AS aspect,
       COUNT(*)::BIGINT AS n_images,
       SUM(((w + {patch} - 1) // {patch})
           * ((h + {patch} - 1) // {patch}))::BIGINT AS total_patches
FROM scored WHERE rn = 1
GROUP BY aspect, i
ORDER BY i
"""


# ---------------------------------------------------------------------------
# Image-axis flagship BUILD: curation -> split -> shard layout, one manifest


def image_training_data_build(
    sf_dir: str,
    shard_bytes: int = 1 << 16,
    split_seed: int = 3,
    seed: int = 42,
    n_parts: int = 32,
    **curation_kwargs,
) -> "rd.Dataset":
    """The end-to-end IMAGE training-data build a contrastive/diffusion
    run consumes — the image-axis twin of ``curation.training_data_build``:
    the full image-curation chain (alignment gate → decoded-pixel quality
    gate → phash near-dup keep-one) decides who survives, survivors get
    the deterministic md5 90/5/5 train/val/test assignment, and the kept
    corpus is laid out into size-bounded WebDataset-style shards by a
    distributed BYTE prefix sum in image_id order. One manifest row per
    kept image: (image_id, split, n_bytes, byte_start, shard_id).

    Shard semantics: ``shard_id = byte_start // shard_bytes`` — the
    crossing-allowed layout a prefix sum expresses exactly (a sample may
    straddle a boundary; every shard holds ~shard_bytes). The greedy
    close-when-exceed variant (``packing.ShardPacker``) is sequentially
    dependent and stays the single-writer path; this manifest is the
    parallel contract for cluster-scale exports.

    Shape: curation verdicts and per-image encoded sizes are computed in
    their own passes (ONE decode each — the size pass never decodes),
    co-located by one id-hash exchange (in-task semi join keeps survivor
    sizes), per-range byte totals to the driver (O(n_parts)), exclusive
    offsets back, in-range vectorized cumsum + md5 split map. Rows-only
    driver check (pixel synthesis is not SQL-expressible); planted-truth
    survivor set, exact prefix-sum bytes and cross-parallelism
    bit-identity are asserted in tests."""
    import hashlib

    import ray.data as rd
    from ray.data.aggregate import Sum

    from crawler_ray.pipelines.textops import _docid_bounds
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    verdicts = image_corpus_curation(sf_dir, seed=seed, **curation_kwargs)

    lo, hi = _docid_bounds(f"{sf_dir}/documents.parquet")
    rng = max(1, -(-(hi - lo + 1) // n_parts))
    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def size_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads, _caps = planted_image_batch(
            ids, seed, dup=True, mismatch=True, lowq=True, watermark=True
        )
        sizes = np.array([len(b) for b in payloads], np.int64)
        return pa.table(
            {"image_id": pa.array(ids, pa.int64()),
             "jpart": pa.array(ids % n_parts, pa.int64()),
             "n_bytes": pa.array(sizes, pa.int64()),
             "kept": pa.nulls(len(ids), pa.bool_())}
        )

    def kept_rows(t: pa.Table) -> pa.Table:
        k = t.filter(t["keep"])
        ids = k["image_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"image_id": pa.array(ids, pa.int64()),
             "jpart": pa.array(ids % n_parts, pa.int64()),
             "n_bytes": pa.nulls(len(ids), pa.int64()),
             "kept": pa.array(np.ones(len(ids), bool), pa.bool_())}
        )

    def semi(g: pa.Table) -> pa.Table:
        keep_ids = g.filter(pa.compute.is_valid(g["kept"]))["image_id"].to_numpy(
            zero_copy_only=False
        )
        sz = g.filter(pa.compute.invert(pa.compute.is_valid(g["kept"])))
        ids = sz["image_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        sel = np.isin(ids, keep_ids)
        ids = ids[sel]
        nb = sz["n_bytes"].to_numpy(zero_copy_only=False).astype(np.int64)[sel]
        return pa.table(
            {"image_id": pa.array(ids, pa.int64()),
             "n_bytes": pa.array(nb, pa.int64()),
             "part": pa.array((ids - lo) // rng, pa.int64())}
        )

    sizes = (
        docs.map_batches(size_rows, batch_format="pyarrow", batch_size=256)
        .union(verdicts.map_batches(kept_rows, batch_format="pyarrow"))
        .groupby("jpart")
        .map_groups(semi, batch_format="pyarrow")
        .materialize()  # slim survivor rows; feeds totals + final fold
    )

    totals = sizes.groupby("part").aggregate(
        Sum("n_bytes", alias_name="b")
    ).take_all()
    base, offsets = 0, {}
    for row in sorted(totals, key=lambda r: r["part"]):
        offsets[int(row["part"])] = base
        base += int(row["b"])

    def layout(g: pa.Table) -> pa.Table:
        ids = g["image_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = g["n_bytes"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ids, nb = ids[order], nb[order]
        start = np.cumsum(nb) - nb + offsets[int((ids[0] - lo) // rng)]
        h = np.array(
            [int(hashlib.md5(f"{split_seed}:{i}".encode()).hexdigest()[:8], 16)
             % 100 for i in ids],
            dtype=np.int64,
        )
        split = np.where(h < 90, "train", np.where(h < 95, "val", "test"))
        return pa.table(
            {"image_id": pa.array(ids, pa.int64()),
             "split": pa.array(split, pa.string()),
             "n_bytes": pa.array(nb, pa.int64()),
             "byte_start": pa.array(start, pa.int64()),
             "shard_id": pa.array(start // shard_bytes, pa.int64())}
        )

    return sizes.groupby("part").map_groups(layout, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PSNR-verified transcoding (storage-optimization stage; input_hint invariant)


class TranscodeStage:
    """Re-encode every image to ``to_fmt`` with a PER-ROW PSNR gate — the
    LAION-style storage-optimization pass (re-encode crawled PNGs to a
    lossy format) carrying the input_hint invariant as code: a transcoded
    row is accepted only if PSNR(decode(new), decode(orig)) ≥ ``min_psnr``
    dB; below the bar the ORIGINAL bytes are kept and the row is flagged.
    Emits (bytes, fmt, orig_bytes_len, new_bytes_len, psnr_db, transcoded).

    Task-mode per-batch stage: decode→encode→decode→PSNR per row (codecs
    are per-buffer), numpy PSNR. At 100 TB size batches so decode memory
    x batch_size fits the worker heap — same sizing note as ImageStats."""

    def __init__(self, to_fmt: str = "webp", min_psnr: float = 40.0):
        self.to_fmt = to_fmt
        self.min_psnr = min_psnr

    def __call__(self, batch: pa.Table) -> pa.Table:
        from crawler_ray.functions.codecs import (
            decode_image, encode_image, psnr, sniff_fmt,
        )

        out_bytes: list[bytes] = []
        out_fmt: list[str] = []
        o_len = np.empty(batch.num_rows, np.int64)
        n_len = np.empty(batch.num_rows, np.int64)
        db = np.empty(batch.num_rows, np.float64)
        ok = np.empty(batch.num_rows, bool)
        for i, data in enumerate(batch["bytes"].to_pylist()):
            px = decode_image(data, sniff_fmt(data))
            new = encode_image(px, self.to_fmt)
            q = psnr(decode_image(new, self.to_fmt), px)
            o_len[i], n_len[i], db[i] = len(data), len(new), q
            if q >= self.min_psnr:
                out_bytes.append(new)
                out_fmt.append(self.to_fmt)
                ok[i] = True
            else:  # keep the original; never publish below the bar
                out_bytes.append(data)
                out_fmt.append(sniff_fmt(data))
                ok[i] = False
        cols = {name: batch[name] for name in batch.column_names
                if name not in ("bytes", "fmt")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["fmt"] = pa.array(out_fmt, pa.string())
        cols["orig_bytes_len"] = pa.array(o_len, pa.int64())
        cols["new_bytes_len"] = pa.array(n_len, pa.int64())
        cols["psnr_db"] = pa.array(db, pa.float64())
        cols["transcoded"] = pa.array(ok, pa.bool_())
        return pa.table(cols)


def image_transcode_report(
    sf_dir: str, to_fmt: str = "webp", min_psnr: float = 40.0, seed: int = 42
) -> "rd.Dataset":
    """Transcode the synthesized PNG corpus to the lossy stand-in format
    and report per-image fidelity + size: (image_id, orig_bytes_len,
    new_bytes_len, psnr_db, transcoded). Zero exchanges — a pure
    decode/encode map; the PSNR bar enforces the BASELINE.json input_hint
    per-row invariant (``PSNR ≥ 40 dB for lossy formats``) in-pipeline
    rather than only in tests. Rows-only driver check (pixel synthesis);
    tests assert every row clears the bar with the stand-in codec and
    that a planted high bar flags rows instead of publishing them."""
    import ray.data as rd

    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def synth(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        payloads, _caps = planted_image_batch(ids, seed)
        return pa.table(
            {"image_id": pa.array([str(int(d)) for d in ids], pa.string()),
             "bytes": pa.array(payloads, pa.binary()),
             "fmt": pa.array(["png"] * len(ids), pa.string())}
        )

    return (
        docs.map_batches(synth, batch_format="pyarrow", batch_size=256)
        .map_batches(
            TranscodeStage(to_fmt, min_psnr), batch_format="pyarrow",
            batch_size=256,
        )
        .select_columns(
            ["image_id", "orig_bytes_len", "new_bytes_len", "psnr_db",
             "transcoded"]
        )
    )


def image_build_card(sf_dir: str, **build_kwargs) -> "rd.Dataset":
    """Dataset card for the image training-data build — the per-split
    publishable summary (the image twin of ``corpus_source_report``):
    (split, n_images, total_bytes, n_shards, first_shard, last_shard),
    derived from the build manifest in ONE split-keyed aggregate (three
    tiny groups; combiner per batch). Rows-only driver check; tests assert
    the card reconciles exactly with the manifest it summarizes."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min, Sum

    manifest = image_training_data_build(sf_dir, **build_kwargs)

    def widen(t: pa.Table) -> pa.Table:
        return t.append_column(
            "n_images", pa.array(np.ones(t.num_rows, np.int64), pa.int64())
        )

    card = (
        manifest.map_batches(widen, batch_format="pyarrow")
        .groupby("split")
        .aggregate(
            Sum("n_images", alias_name="n_images"),
            Sum("n_bytes", alias_name="total_bytes"),
            Min("shard_id", alias_name="first_shard"),
            Max("shard_id", alias_name="last_shard"),
        )
    )

    # exact distinct shards per split: ONE (split, shard_id) groupby whose
    # result is O(n_shards) rows by construction (shards = bytes/shard_bytes),
    # then a driver-side count over that tiny table
    sh_pairs = (
        manifest.select_columns(["split", "shard_id"])
        .groupby(["split", "shard_id"])
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    if sh_pairs.empty:  # empty build (empty corpus / all-filtered): an
        # empty TYPED card, not a KeyError (to_pandas drops the schema)
        import pandas as pd

        return rd.from_pandas(
            pd.DataFrame(
                {"split": pd.Series([], dtype=object),
                 "n_images": pd.Series([], dtype=np.int64),
                 "total_bytes": pd.Series([], dtype=np.int64),
                 "n_shards": pd.Series([], dtype=np.int64),
                 "first_shard": pd.Series([], dtype=np.int64),
                 "last_shard": pd.Series([], dtype=np.int64)}
            )
        )
    sh_df = (
        sh_pairs.groupby("split", as_index=False)["shard_id"]
        .nunique()
        .rename(columns={"shard_id": "n_shards"})
    )
    sh_df["n_shards"] = sh_df["n_shards"].astype(np.int64)
    card_df = card.to_pandas()  # 3 rows
    out = card_df.merge(sh_df, on="split")
    out = out[["split", "n_images", "total_bytes", "n_shards",
               "first_shard", "last_shard"]].sort_values("split")
    return rd.from_pandas(out.reset_index(drop=True))


def image_phash_knn(
    sf_dir: str, query_doc_id: int = 0, k: int = 20, seed: int = 42
) -> "rd.Dataset":
    """Visual similar-image search: exact top-k nearest images to the
    query image by phash Hamming distance — the serving-path twin of
    ``similarity.knn_brute_force`` on the image axis (reverse-image-search
    / dedup-triage lookup). Per-batch partial top-k (vectorized XOR +
    popcount against the 8-byte query hash shipped in the task closure —
    nothing broadcast), then a tiny global sort; ties break on image_id.
    The corpus pass is ONE scan; at 10^10 images the same query serves
    from the banded phash index instead (``cross_snapshot_image_dups``'s
    warm path) — this is the exact baseline that validates it. Rows-only
    driver check (pixel synthesis); tests assert equality with a numpy
    brute force and that the planted near-copies of the query rank first."""
    import ray.data as rd

    from crawler_ray.functions.codecs import decode_image, sniff_fmt
    from crawler_ray.functions.hashing import phash64
    from crawler_ray.sources.io import read_parquet_sized
    from crawler_ray.sources.synthetic import planted_image_batch

    q_payload, _ = planted_image_batch(np.array([query_doc_id]), seed, dup=True)
    q_hash = np.uint64(
        np.int64(phash64(decode_image(q_payload[0], sniff_fmt(q_payload[0]))))
    )
    _POP = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1
    ).sum(axis=1).astype(np.uint8)

    docs = read_parquet_sized(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial_topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = ids[ids != query_doc_id]
        payloads, _caps = planted_image_batch(ids, seed, dup=True)
        ph = np.empty(len(ids), np.uint64)
        for i, data in enumerate(payloads):
            ph[i] = np.uint64(np.int64(phash64(decode_image(data, sniff_fmt(data)))))
        xr = ph ^ q_hash
        d = _POP[xr.view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)
        order = np.lexsort((ids, d))[:k]
        return pa.table(
            {"image_id": pa.array(ids[order], pa.int64()),
             "hamming": pa.array(d[order], pa.int64())}
        )

    return (
        docs.map_batches(partial_topk, batch_format="pyarrow", batch_size=256)
        .sort(["hamming", "image_id"])
        .limit(k)
    )
