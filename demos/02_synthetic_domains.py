#!/usr/bin/env python3
"""Gallery of the synthetic domain generators and shift transforms.

Renders glyph rasters as ASCII art before and after each raster transform,
shows the Gaussian-task shifts, and round-trips a dataset through the binary
file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from galasim import (
    TransformSpec,
    apply_background_overlay,
    apply_channel_stack,
    apply_label_noise,
    apply_scale_recenter,
    gen_gaussian_domain,
    gen_glyph_domain,
    load_dataset,
    save_dataset,
)

SHADES = " .:-=+*#%@"


def ascii_art(img):
    lines = []
    for row in img:
        lines.append("".join(SHADES[min(int(v * (len(SHADES) - 1)), len(SHADES) - 1)]
                             for v in row))
    return "\n".join(lines)


# --- glyph domains: one stroke pattern per class ----------------------------
glyphs = gen_glyph_domain(4, 20, canvas=12, seed=3)
print(f"glyph domain: {glyphs.n_samples} samples, {glyphs.feature_dim} features, "
      f"raster {glyphs.raster_shape}")
for c in (0, 1):
    idx = int(np.flatnonzero(glyphs.labels == c)[0])
    print(f"\nclass {c}:")
    print(ascii_art(glyphs.rasters()[idx, 0]))

# --- the three raster shifts -------------------------------------------------
overlay = apply_background_overlay(glyphs, 0.8, seed=5)
idx = 0
print("\nsame glyph with a textured background (amplitude 0.8):")
print(ascii_art(overlay.rasters()[idx, 0]))

rescaled = apply_scale_recenter(glyphs, inner=8)
print("\ndownscaled to 8x8 and re-centered (border stays black):")
print(ascii_art(rescaled.rasters()[idx, 0]))

stacked = apply_channel_stack(glyphs, shift_px=2)
print(f"\nchannel stack: {glyphs.feature_dim} -> {stacked.feature_dim} features; "
      f"R/B channels are +-2px translations of the glyph")
print("red channel:")
print(ascii_art(stacked.rasters()[idx, 0]))

# --- Gaussian vector tasks ----------------------------------------------------
base = gen_gaussian_domain(4, 100, 8, seed=1, name="clean")
shifted = gen_gaussian_domain(
    4, 100, 8, seed=1, name="shifted",
    shift=(TransformSpec("rotate", {"angle": np.pi / 2}),
           TransformSpec("mean_shift", {"magnitude": 2.0}, seed=9)))
print("\nGaussian task class means (first 4 dims):")
for d in (base, shifted):
    means = np.stack([d.samples[d.labels == c].mean(axis=0)[:4] for c in range(4)])
    print(f"  {d.name:8s}\n{np.round(means, 2)}")

noisy = apply_label_noise(base, 0.3, seed=2)
print(f"\nlabel_noise(0.3) flipped {(noisy.labels != base.labels).sum()} "
      f"of {base.n_samples} labels")

# --- binary file format round trip --------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "glyphs.gdsd"
    save_dataset(glyphs, path)
    loaded = load_dataset(path)
    print(f"\nfile round trip: {path.stat().st_size} bytes, "
          f"equal={loaded == glyphs}, raster={loaded.raster_shape}")
