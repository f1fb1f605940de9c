"""Synthetic shifted-domain generators and transforms.

Two task families: low-dimensional Gaussian mixtures (class c centered at
3*e_{c mod d}, unit isotropic noise) and small raster "glyph" tasks built
from seven-segment-style stroke patterns. Raster domains support the
background-overlay, scale-recenter and channel-stack shifts; Gaussian
domains support rotate and mean-shift; label_noise works on any labeled
dataset. Every generator and transform is a pure function of (spec, seed).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, IntegrityError, ParseError, UnsupportedVersionError
from .nn import Scratch


@dataclass
class TransformSpec:
    """One domain-shift step: a kind, its parameters, and a seed.

    Applying the same spec with the same seed to the same dataset is
    bit-identical.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner},seed={self.seed})"


@dataclass(eq=False)
class DomainDataset:
    """One domain's samples plus metadata.

    samples are float32, shape (n, feature_dim); labels are int class indices
    or None (the unlabeled target view). raster_shape is (channels, s, s) for
    glyph-style domains and None for vector tasks; provenance records the
    transform chain. Equality compares the fields the file format persists
    (name, samples, labels, num_classes).
    """

    name: str
    samples: np.ndarray
    labels: Optional[np.ndarray]
    num_classes: int
    provenance: tuple[str, ...] = ()
    raster_shape: Optional[tuple[int, int, int]] = None

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 2:
            raise DataError("samples must be a 2-D array (n, feature_dim)")
        if not np.isfinite(self.samples).all():
            raise DataError(f"dataset {self.name!r} contains non-finite features")
        if self.num_classes < 2:
            raise DataError("num_classes must be >= 2")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[0],):
                raise DataError("labels length must match number of samples")
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
                raise DataError(f"labels outside [0, {self.num_classes})")
            counts = np.bincount(self.labels, minlength=self.num_classes)
            if not counts.all():
                missing = np.flatnonzero(counts == 0).tolist()
                raise DataError(f"dataset {self.name!r} is missing classes {missing}")
        if self.raster_shape is not None:
            ch, h, w = self.raster_shape
            if ch * h * w != self.samples.shape[1]:
                raise DataError("raster_shape does not match feature_dim")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomainDataset):
            return NotImplemented
        if self.name != other.name or self.num_classes != other.num_classes:
            return False
        if not np.array_equal(self.samples, other.samples):
            return False
        if (self.labels is None) != (other.labels is None):
            return False
        return self.labels is None or np.array_equal(self.labels, other.labels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.samples.shape[1]

    def strip_labels(self) -> "DomainDataset":
        """Training-facing view of an unlabeled domain: labels are gone, not hidden."""
        return DomainDataset(self.name, self.samples, None, self.num_classes,
                             self.provenance + ("labels_stripped",), self.raster_shape)

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DataError(f"dataset {self.name!r} has no labels")
        return self.labels

    def rasters(self) -> np.ndarray:
        """Samples reshaped to (n, channels, s, s); raster datasets only."""
        if self.raster_shape is None:
            raise TypeError(f"dataset {self.name!r} is not raster-valued")
        return self.samples.reshape((self.n_samples, *self.raster_shape))

    def _replace(self, samples, labels, provenance_step, raster_shape="keep"):
        shape = self.raster_shape if raster_shape == "keep" else raster_shape
        return DomainDataset(self.name, samples, labels, self.num_classes,
                             self.provenance + (provenance_step,), shape)

    def split(self, train_fraction: float, seed: int) -> tuple["DomainDataset", "DomainDataset"]:
        """Seeded stratified split; both halves keep every class when labels exist."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        labels = self.require_labels()
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5871)))
        train_idx, test_idx = [], []
        for c in range(self.num_classes):
            idx = np.flatnonzero(labels == c)
            idx = idx[rng.permutation(idx.size)]
            cut = max(1, min(idx.size - 1, int(np.floor(train_fraction * idx.size))))
            train_idx.append(idx[:cut])
            test_idx.append(idx[cut:])
        train_idx = np.sort(np.concatenate(train_idx))
        test_idx = np.sort(np.concatenate(test_idx))
        make = lambda idx, tag: DomainDataset(
            self.name, self.samples[idx],
            labels[idx], self.num_classes,
            self.provenance + (tag,), self.raster_shape)
        return make(train_idx, "split_train"), make(test_idx, "split_test")


# ---------------------------------------------------------------------------
# generators


def gen_gaussian_domain(num_classes: int, samples_per_class: int, input_dim: int,
                        shift: Sequence[TransformSpec] | TransformSpec | None = None,
                        seed: int = 0, name: Optional[str] = None,
                        center_scale: float = 3.0) -> DomainDataset:
    """Gaussian-mixture domain: class c at center_scale * e_{c mod input_dim},
    unit isotropic noise, then the shift chain applied in order.

    The default separation leaves a few percent of Bayes error; raise
    center_scale to build an (almost surely) linearly separable task.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if samples_per_class < 8:
        raise ValueError("samples_per_class must be >= 8")
    if input_dim < 2:
        raise ValueError("input_dim must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6A0551)))
    centers = np.zeros((num_classes, input_dim))
    for c in range(num_classes):
        centers[c, c % input_dim] = float(center_scale)
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    samples = centers[labels] + rng.standard_normal((labels.size, input_dim))
    if name is None:
        name = f"gauss_c{num_classes}_d{input_dim}_s{seed}"
    out = DomainDataset(name, samples.astype(np.float32), labels, num_classes,
                        (f"gaussian(C={num_classes},K={samples_per_class},d={input_dim},"
                         f"scale={center_scale},seed={seed})",))
    return apply_transform_chain(out, shift)


_SEGMENT_COUNT = 7


def _segment_masks(canvas: int) -> np.ndarray:
    """Seven stroke masks (top, tr, br, bottom, bl, tl, middle) on a canvas."""
    if canvas < 8:
        raise ValueError("canvas must be >= 8 to render distinct glyphs")
    m = max(1, canvas // 8)
    t = max(1, canvas // 6)
    x0, x1 = m, canvas - 1 - m
    y0, y1 = m, canvas - 1 - m
    ymid = canvas // 2
    masks = np.zeros((_SEGMENT_COUNT, canvas, canvas), dtype=bool)
    masks[0, y0:y0 + t, x0:x1 + 1] = True
    masks[1, y0:ymid + 1, x1 - t + 1:x1 + 1] = True
    masks[2, ymid:y1 + 1, x1 - t + 1:x1 + 1] = True
    masks[3, y1 - t + 1:y1 + 1, x0:x1 + 1] = True
    masks[4, ymid:y1 + 1, x0:x0 + t] = True
    masks[5, y0:ymid + 1, x0:x0 + t] = True
    masks[6, ymid - t // 2:ymid - t // 2 + t, x0:x1 + 1] = True
    return masks


def gen_glyph_domain(num_classes: int, samples_per_class: int, canvas: int,
                     channels: int = 1, seed: int = 0,
                     name: Optional[str] = None) -> DomainDataset:
    """Raster domain of procedural glyphs, one stroke pattern per class.

    Class c lights the segments given by the bits of c+1 over a seven-segment
    layout, so up to 127 classes stay pairwise distinct. Per-sample jitter:
    one-pixel translation, stroke intensity in [0.75, 1], additive pixel noise.
    """
    if not 2 <= num_classes <= 2 ** _SEGMENT_COUNT - 1:
        raise ValueError(f"num_classes must be in [2, {2 ** _SEGMENT_COUNT - 1}]")
    if channels not in (1, 3):
        raise ValueError("channels must be 1 or 3")
    masks = _segment_masks(canvas)  # raises for canvas < 8
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x617F)))
    bits = (np.arange(1, num_classes + 1)[:, None] >> np.arange(_SEGMENT_COUNT)) & 1
    glyphs = (bits.astype(bool)[:, :, None, None] & masks).any(axis=1).astype(np.float64)

    n = num_classes * samples_per_class
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    shifts = rng.integers(-1, 2, size=(n, 2))
    intensity = rng.uniform(0.75, 1.0, size=n)
    noise = rng.normal(0.0, 0.03, size=(n, canvas, canvas))
    # translate by (dy, dx) with zero fill: window (1 - dy, 1 - dx) of the glyph
    # padded by one zero pixel, all samples in one gather
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(glyphs, ((0, 0), (1, 1), (1, 1))), (canvas, canvas), axis=(1, 2))
    img = windows[labels, 1 - shifts[:, 0], 1 - shifts[:, 1]]
    img *= intensity[:, None, None]
    img += noise
    np.clip(img, 0.0, 1.0, out=img)
    samples = np.repeat(img.astype(np.float32)[:, None], channels, axis=1)
    if name is None:
        name = f"glyph_c{num_classes}_v{canvas}_s{seed}"
    return DomainDataset(name, samples.reshape(n, -1), labels, num_classes,
                         (f"glyph(C={num_classes},K={samples_per_class},canvas={canvas},"
                          f"channels={channels},seed={seed})",),
                         raster_shape=(channels, canvas, canvas))


# ---------------------------------------------------------------------------
# transforms


def apply_background_overlay(d: DomainDataset, noise_amplitude: float, seed: int = 0) -> DomainDataset:
    """Blend each raster with a seeded smooth texture:
    out = clip(max(glyph, texture * amplitude), 0, 1). Labels unchanged.

    Each (sample, channel) texture is a sum of 3 low-frequency sinusoid
    gratings normalized to [0, 1]; its draws come in the order fx, fy,
    phase, amp per grating, texture after texture.
    """
    if not 0.0 < noise_amplitude <= 1.0:
        raise ValueError("noise_amplitude must be in (0, 1]")
    imgs = d.rasters()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xB6)))
    n, ch, s, _ = imgs.shape
    u = rng.random((n, ch, 3, 4))[..., None, None]
    # Generator.uniform(low, high) computes low + (high - low) * u
    fx, fy = 0.5 + 1.5 * u[:, :, :, 0], 0.5 + 1.5 * u[:, :, :, 1]
    phase = 2.0 * np.pi * u[:, :, :, 2]
    amp = 0.5 + 0.5 * u[:, :, :, 3]
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    tex, arg, term = np.zeros((3, n, ch, s, s))
    for g in range(3):
        np.multiply(fx[:, :, g], xx, out=arg)
        arg += np.multiply(fy[:, :, g], yy, out=term)
        arg *= 2.0 * np.pi
        arg /= s
        arg += phase[:, :, g]
        np.sin(arg, out=arg)
        arg *= amp[:, :, g]
        tex += arg
    tex -= tex.min(axis=(2, 3), keepdims=True)
    peak = tex.max(axis=(2, 3), keepdims=True)
    np.divide(tex, peak, out=tex, where=peak > 0)
    tex *= noise_amplitude
    np.maximum(imgs, tex, out=tex)  # float32 to float64 is exact
    np.clip(tex, 0.0, 1.0, out=tex)
    return d._replace(tex.reshape(n, -1).astype(np.float32), d.labels,
                      f"background_overlay(amp={noise_amplitude},seed={seed})")


def bilinear_resize(img: np.ndarray, out_size: int) -> np.ndarray:
    """Bilinear resample the last two (square) axes to out_size x out_size with
    corner-aligned sampling; leading axes are batch axes (out_size == input
    size reproduces the input exactly)."""
    s = img.shape[-1]
    if out_size == s:
        return img.copy()
    if out_size == 1:
        coords = np.array([(s - 1) / 2.0])
    else:
        coords = np.arange(out_size) * (s - 1) / (out_size - 1)
    lo = np.floor(coords).astype(int)
    hi = np.minimum(lo + 1, s - 1)
    frac = coords - lo
    rows_lo, rows_hi = img[..., lo, :], img[..., hi, :]
    top = rows_lo[..., lo] * (1 - frac) + rows_lo[..., hi] * frac
    bot = rows_hi[..., lo] * (1 - frac) + rows_hi[..., hi] * frac
    return top * (1 - frac)[:, None] + bot * frac[:, None]


def apply_scale_recenter(d: DomainDataset, inner: int, seed: int = 0) -> DomainDataset:
    """Downscale each raster to inner x inner and paste it centered on a zero
    canvas of the original size; labels unchanged."""
    imgs = d.rasters().astype(np.float64)
    n, _, s, _ = imgs.shape
    if inner > s:
        raise ValueError(f"inner ({inner}) must not exceed canvas ({s})")
    if inner < 1:
        raise ValueError("inner must be >= 1")
    off = (s - inner) // 2
    out = np.zeros_like(imgs)
    out[:, :, off:off + inner, off:off + inner] = bilinear_resize(imgs, inner)
    return d._replace(out.reshape(n, -1).astype(np.float32), d.labels,
                      f"scale_recenter(inner={inner})")


def apply_channel_stack(d: DomainDataset, shift_px: int, seed: int = 0) -> DomainDataset:
    """Stack a single-channel raster into RGB with the R channel shifted
    +shift_px along x, B shifted -shift_px, G unshifted; zero fill."""
    imgs = d.rasters()
    n, ch, s, _ = imgs.shape
    if ch != 1:
        raise TypeError("channel_stack needs single-channel input")
    if not 1 <= shift_px < s / 2:
        raise ValueError("shift_px must satisfy 1 <= shift_px < canvas/2")
    out = np.zeros((n, 3, s, s), dtype=np.float32)
    out[:, 0, :, shift_px:] = imgs[:, 0, :, :-shift_px]
    out[:, 1] = imgs[:, 0]
    out[:, 2, :, :-shift_px] = imgs[:, 0, :, shift_px:]
    return d._replace(out.reshape(n, -1), d.labels,
                      f"channel_stack(shift_px={shift_px})", raster_shape=(3, s, s))


def _rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Givens rotations by `angle` in every disjoint coordinate plane."""
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for a in range(0, dim - 1, 2):
        b = a + 1
        g = np.eye(dim)
        g[a, a] = c
        g[a, b] = -s
        g[b, a] = s
        g[b, b] = c
        rot = g @ rot
    return rot


def apply_rotate(d: DomainDataset, angle: float, seed: int = 0) -> DomainDataset:
    """Rotate vector-task samples about the origin (all disjoint planes)."""
    if d.raster_shape is not None:
        raise TypeError("rotate applies to vector tasks, not rasters")
    rot = _rotation_matrix(d.feature_dim, float(angle))
    samples = d.samples.astype(np.float64) @ rot.T
    return d._replace(samples.astype(np.float32), d.labels, f"rotate(angle={angle})")


def apply_mean_shift(d: DomainDataset, magnitude: float, seed: int = 0) -> DomainDataset:
    """Translate vector-task samples by a seeded random direction times magnitude."""
    if d.raster_shape is not None:
        raise TypeError("mean_shift applies to vector tasks, not rasters")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x5417)))
    direction = rng.standard_normal(d.feature_dim)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0 else direction
    samples = d.samples.astype(np.float64) + float(magnitude) * direction
    return d._replace(samples.astype(np.float32), d.labels,
                      f"mean_shift(magnitude={magnitude},seed={seed})")


def apply_label_noise(d: DomainDataset, fraction: float, seed: int = 0) -> DomainDataset:
    """Flip exactly floor(fraction * n) labels to uniformly random other classes."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    labels = d.require_labels().copy()
    n_flip = int(np.floor(fraction * labels.size))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x1AB)))
    idx = rng.choice(labels.size, size=n_flip, replace=False)
    offsets = rng.integers(1, d.num_classes, size=n_flip)
    labels[idx] = (labels[idx] + offsets) % d.num_classes
    return d._replace(d.samples, labels, f"label_noise(fraction={fraction},seed={seed})")


# a TransformSpec's params are its function's arguments but the dataset and seed
TRANSFORMS = {
    "background_overlay": apply_background_overlay,
    "scale_recenter": apply_scale_recenter,
    "channel_stack": apply_channel_stack,
    "rotate": apply_rotate,
    "mean_shift": apply_mean_shift,
    "label_noise": apply_label_noise,
}
TRANSFORM_KINDS = tuple(TRANSFORMS)


def apply_transform(d: DomainDataset, spec: TransformSpec) -> DomainDataset:
    return TRANSFORMS[spec.kind](d, **spec.params, seed=spec.seed)


def apply_transform_chain(d: DomainDataset,
                          chain: Sequence[TransformSpec] | TransformSpec | None) -> DomainDataset:
    if chain is None:
        return d
    if isinstance(chain, TransformSpec):
        chain = (chain,)
    for spec in chain:
        d = apply_transform(d, spec)
    return d


def mixup(x: np.ndarray, y_soft: np.ndarray, alpha: float, rng: np.random.Generator,
          lam: Optional[float] = None,
          scratch: Scratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise mixup: each sample blends with a random partner using its own
    lambda ~ Beta(alpha, alpha). `lam` forces a fixed lambda (test hook).

    With a Scratch, the float64 arrays x and y_soft are blended in place and
    returned, and the partner rows are gathered into its memory; without
    one, the blends are fresh arrays and the inputs are left alone.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if scratch is None:
        x = np.array(x, dtype=np.float64)
        y_soft = np.array(y_soft, dtype=np.float64)
    elif not all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in (x, y_soft)):
        raise ValueError("mixup with a Scratch blends in place: x and y_soft must be "
                         "float64 arrays")
    n = x.shape[0]
    if n < 2:
        raise ValueError("mixup needs a batch of at least 2")
    partner = rng.permutation(n)
    lams = np.full(n, float(lam)) if lam is not None else rng.beta(alpha, alpha, size=n)
    lx = lams[:, None]
    for key, a in (("mixup_x", x), ("mixup_y", y_soft)):
        # lx*a + (1-lx)*a[partner]; "clip" is exact for a permutation and
        # skips the buffered gather of the default "raise"
        other = np.take(a, partner, axis=0, mode="clip",
                        out=None if scratch is None else scratch.take(key, a.shape))
        other *= 1 - lx
        a *= lx
        a += other
    return x, y_soft


# ---------------------------------------------------------------------------
# dataset file format
#
# little-endian: magic "GDSD", u8 version=1, u16 name length, UTF-8 name,
# u32 num_samples, u32 feature_dim, u16 num_classes, u8 has_labels,
# f32 features row-major, u16 labels if present, u32 CRC32 of all prior bytes.

_MAGIC = b"GDSD"
_VERSION = 1


def save_dataset(d: DomainDataset, path) -> None:
    name_bytes = d.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("dataset name too long to serialize")
    if d.num_classes > 0xFFFF:
        raise ValueError("num_classes exceeds the u16 format field")
    parts = [
        _MAGIC,
        struct.pack("<B", _VERSION),
        struct.pack("<H", len(name_bytes)),
        name_bytes,
        struct.pack("<IIHB", d.n_samples, d.feature_dim, d.num_classes,
                    1 if d.labels is not None else 0),
        np.ascontiguousarray(d.samples, dtype="<f4").tobytes(),
    ]
    if d.labels is not None:
        parts.append(d.labels.astype("<u2").tobytes())
    body = b"".join(parts)
    blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(blob)


def _infer_raster_shape(feature_dim: int) -> Optional[tuple[int, int, int]]:
    # 3*s^2 and t^2 never coincide, so the inference is unambiguous
    for ch in (3, 1):
        if feature_dim % ch == 0:
            side = int(round(np.sqrt(feature_dim // ch)))
            if side >= 8 and ch * side * side == feature_dim:
                return (ch, side, side)
    return None


def load_dataset(path) -> DomainDataset:
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset: int, count: int, what: str) -> bytes:
        if offset + count > len(blob):
            raise ParseError(f"truncated dataset file: needed {count} bytes for "
                             f"{what} at offset {offset}, file has {len(blob)}")
        return blob[offset : offset + count]

    if need(0, 4, "magic") != _MAGIC:
        raise ParseError("bad magic at offset 0: not a GDSD dataset file")
    version = need(4, 1, "version")[0]
    if version != _VERSION:
        raise UnsupportedVersionError(f"unsupported dataset version {version} at offset 4")
    (name_len,) = struct.unpack("<H", need(5, 2, "name length"))
    off = 7
    try:
        name = need(off, name_len, "name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 name at offset {off}") from exc
    off += name_len
    n_samples, feature_dim, num_classes, has_labels = struct.unpack(
        "<IIHB", need(off, 11, "header"))
    off += 11
    feat_bytes = 4 * n_samples * feature_dim
    samples = np.frombuffer(need(off, feat_bytes, "features"), dtype="<f4")
    samples = samples.reshape(n_samples, feature_dim).copy()
    off += feat_bytes
    labels = None
    if has_labels:
        labels = np.frombuffer(need(off, 2 * n_samples, "labels"), dtype="<u2").astype(np.int64)
        off += 2 * n_samples
    (stored_crc,) = struct.unpack("<I", need(off, 4, "checksum"))
    if off + 4 != len(blob):
        raise ParseError(f"trailing garbage after offset {off + 4}")
    actual_crc = zlib.crc32(blob[:off]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise IntegrityError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")
    return DomainDataset(name, samples, labels, num_classes,
                         provenance=(f"loaded({path})",),
                         raster_shape=_infer_raster_shape(feature_dim))
