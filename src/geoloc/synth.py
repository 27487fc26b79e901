"""Synthetic geo-tagged worlds with known appearance structure.

Places sit on a grid over a square extent, each snapped to the center of
the partition cell it falls in; headings are snapped to heading-bin
centers. Per-image jitter stays strictly inside the cell and the bin, so
every image of one (place, heading bin) lands in the same class of the
aligned partition and shares one ground-truth latent vector.

Feature maps are an affine per-channel lift of the latent, constant across
spatial positions, plus optional per-image structured nuisance (a fixed
random subspace uncorrelated with location) and white noise. Any of the
supported poolings therefore recovers the channel summary, a linear map of
the latent, which makes end-to-end training solvable at desk scale while
the nuisance keeps an untrained projection from solving retrieval for
free. Query-side maps get an extra seeded perturbation to mimic a domain
shift.

Everything is generated from one seeded stream, so equal configs produce
bit-identical worlds.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .ingest import ImageRecord, save_manifest
from .partition import GeoPose, Partition

# All synthetic worlds live in one UTM zone at a plausible in-zone offset.
SYNTH_ZONE_NUMBER = 10
SYNTH_HEMISPHERE = "north"
SYNTH_EAST_OFFSET = 550_000.0
SYNTH_NORTH_OFFSET = 4_180_000.0


@dataclass(frozen=True)
class CityConfig:
    """Geometry, appearance, and noise of a synthetic world.

    ``cell_size_m`` and ``heading_bin_deg`` name the partition geometry the
    world is aligned to: image positions jitter less than a quarter cell and
    headings less than a quarter bin around snapped centers. ``nuisance_dim``
    and ``nuisance_sigma`` control the per-image structured component; zero
    disables it and makes same-(place, bin) maps identical at zero noise.
    """

    extent_m: float = 100.0
    place_spacing_m: float = 10.0
    headings_per_place: int = 4
    images_per_place_heading: int = 12
    latent_dim: int = 32
    feature_map_shape: tuple[int, int, int] = (48, 4, 4)
    noise_sigma: float = 0.05
    domain_shift_sigma: float = 0.0
    nuisance_dim: int = 0
    nuisance_sigma: float = 0.0
    cell_size_m: float = 10.0
    heading_bin_deg: float = 30.0
    repel_iterations: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if self.extent_m <= 0 or self.place_spacing_m <= 0 or self.cell_size_m <= 0:
            raise DomainError("extents, spacings and cell sizes must be positive")
        if self.extent_m < self.place_spacing_m:
            raise DomainError(
                f"extent {self.extent_m} m is too small for one place at {self.place_spacing_m} m spacing"
            )
        if self.place_spacing_m < self.cell_size_m:
            raise DomainError("place spacing below the cell size would merge places into one class")
        if self.headings_per_place < 1 or self.images_per_place_heading < 1:
            raise DomainError("headings_per_place and images_per_place_heading must be >= 1")
        if self.latent_dim < 2:
            raise DomainError("latent_dim must be >= 2")
        c, h, w = self.feature_map_shape
        if c < 1 or h < 1 or w < 1:
            raise DomainError(f"bad feature map shape {self.feature_map_shape}")
        if min(self.noise_sigma, self.domain_shift_sigma, self.nuisance_sigma) < 0:
            raise DomainError("noise sigmas must be >= 0")
        if self.nuisance_dim < 0:
            raise DomainError("nuisance_dim must be >= 0")
        bins = 360.0 / self.heading_bin_deg
        if abs(bins - round(bins)) > 1e-9:
            raise DomainError(f"heading bin {self.heading_bin_deg} does not divide 360 exactly")
        # object.__setattr__ because the dataclass is frozen
        object.__setattr__(self, "feature_map_shape", tuple(self.feature_map_shape))


@dataclass
class SyntheticWorld:
    config: CityConfig
    records: list[ImageRecord]
    features: dict[str, np.ndarray]
    query_features: dict[str, np.ndarray]
    latents: dict[tuple[int, int], np.ndarray]
    latent_key_of: dict[str, tuple[int, int]]
    max_cross_similarity: float
    dropped_places: int


def _spread_unit_vectors(rng: np.random.Generator, count: int, dim: int, iterations: int) -> np.ndarray:
    """Unit vectors that are mutually orthogonal when dim allows, repelled otherwise.

    The repulsion pushes each vector away from its neighbors with weights that
    concentrate on the currently worst-aligned pairs, which lowers the maximum
    cross-similarity rather than just the average.
    """
    if dim >= count:
        basis = np.linalg.qr(rng.standard_normal((dim, count)))[0]
        return basis.T.copy()
    vecs = rng.standard_normal((count, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for _ in range(iterations):
        gram = vecs @ vecs.T
        np.fill_diagonal(gram, 0.0)
        weights = np.exp(30.0 * (np.abs(gram) - np.abs(gram).max()))
        push = (weights * gram) @ vecs
        norms = np.linalg.norm(push, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        vecs -= 0.3 * push / norms
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def generate_city(cfg: CityConfig) -> SyntheticWorld:
    """Build a deterministic world from the config seed."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0x51714]))
    m = cfg.cell_size_m
    alpha = cfg.heading_bin_deg
    n_bins = round(360.0 / alpha)
    n_side = int(cfg.extent_m // cfg.place_spacing_m)

    # Place centers: nominal grid points snapped to their cell center plus a
    # small jitter that keeps later image jitter strictly inside the cell.
    place_positions: list[np.ndarray] = []
    dropped = 0
    for iy in range(n_side):
        for ix in range(n_side):
            nominal = np.array([(ix + 0.5) * cfg.place_spacing_m, (iy + 0.5) * cfg.place_spacing_m])
            cell = np.floor(nominal / m)
            if cell.min() < 0 or ((cell + 1.0) * m).max() > cfg.extent_m + 1e-9:
                dropped += 1  # cell sticks out of the extent; skip the place
                continue
            center = (cell + 0.5) * m
            place_positions.append(center + rng.uniform(-m / 8.0, m / 8.0, size=2))
    if not place_positions:
        raise DomainError("no place cell fits fully inside the extent")

    # Heading slots per place: nominal equally-spaced headings snapped to the
    # center of their bin, again with a safe jitter margin.
    slot_bins = []
    slot_centers_all: list[list[float]] = []
    for _p, pos in enumerate(place_positions):
        centers = []
        bins = []
        for k in range(cfg.headings_per_place):
            nominal_h = k * 360.0 / cfg.headings_per_place
            h_bin = int(nominal_h // alpha) % n_bins
            centers.append((h_bin + 0.5) * alpha + rng.uniform(-alpha / 8.0, alpha / 8.0))
            bins.append(h_bin)
        slot_centers_all.append(centers)
        slot_bins.append(bins)

    latent_keys = sorted({(p, b) for p, bins in enumerate(slot_bins) for b in bins})
    vectors = _spread_unit_vectors(rng, len(latent_keys), cfg.latent_dim, cfg.repel_iterations)
    latents = {key: vectors[i] for i, key in enumerate(latent_keys)}
    gram = vectors @ vectors.T
    np.fill_diagonal(gram, -1.0)
    max_cross = float(gram.max()) if len(latent_keys) > 1 else -1.0

    c, h, w = cfg.feature_map_shape
    # Unit latents hit each channel with std 1, so nuisance_sigma and
    # noise_sigma are directly comparable to the signal scale.
    lift = rng.standard_normal((c, cfg.latent_dim))
    nuisance_lift = None
    if cfg.nuisance_dim > 0:
        nuisance_lift = rng.standard_normal((c, cfg.nuisance_dim)) / math.sqrt(cfg.nuisance_dim)
    # Offset keeps maps positive so the GeM clamp never bites at sane sigmas.
    signal = vectors @ lift.T
    offset = float(-signal.min()) + 1.0 + 4.0 * (cfg.noise_sigma + cfg.nuisance_sigma + cfg.domain_shift_sigma)

    records: list[ImageRecord] = []
    features: dict[str, np.ndarray] = {}
    query_features: dict[str, np.ndarray] = {}
    latent_key_of: dict[str, tuple[int, int]] = {}
    shifted = cfg.domain_shift_sigma > 0.0
    for p, pos in enumerate(place_positions):
        for k in range(cfg.headings_per_place):
            h_bin = slot_bins[p][k]
            slot_center = slot_centers_all[p][k]
            z = latents[(p, h_bin)]
            for i in range(cfg.images_per_place_heading):
                xy = pos + rng.uniform(-m / 5.0, m / 5.0, size=2)
                heading = (slot_center + rng.uniform(-alpha / 5.0, alpha / 5.0)) % 360.0
                rid = f"p{p:04d}h{k:02d}i{i:03d}"
                chan = lift @ z + offset
                if nuisance_lift is not None and cfg.nuisance_sigma > 0.0:
                    chan = chan + cfg.nuisance_sigma * (
                        nuisance_lift @ rng.standard_normal(cfg.nuisance_dim)
                    )
                fmap = chan[:, None, None] + cfg.noise_sigma * rng.standard_normal((c, h, w))
                features[rid] = fmap
                query_features[rid] = (
                    fmap + cfg.domain_shift_sigma * rng.standard_normal((c, h, w)) if shifted else fmap
                )
                records.append(
                    ImageRecord(
                        id=rid,
                        pose=GeoPose(
                            east=float(SYNTH_EAST_OFFSET + xy[0]),
                            north=float(SYNTH_NORTH_OFFSET + xy[1]),
                            heading=float(heading),
                        ),
                        zone_number=SYNTH_ZONE_NUMBER,
                        hemisphere=SYNTH_HEMISPHERE,
                    )
                )
                latent_key_of[rid] = (p, h_bin)

    return SyntheticWorld(
        config=cfg,
        records=records,
        features=features,
        query_features=query_features,
        latents=latents,
        latent_key_of=latent_key_of,
        max_cross_similarity=max_cross,
        dropped_places=dropped,
    )


def oracle_descriptor(world: SyntheticWorld, image_id: str) -> np.ndarray:
    """Ground-truth unit descriptor: the latent of the image's (place, bin)."""
    if image_id not in world.latent_key_of:
        raise DomainError(f"unknown image id {image_id!r}")
    z = world.latents[world.latent_key_of[image_id]]
    return z / np.linalg.norm(z)


@dataclass(frozen=True)
class Violation:
    kind: str
    classes: tuple
    detail: str


def oracle_pairwise_check(world: SyntheticWorld, part: Partition) -> list[Violation]:
    """Exhaustively verify the partition's structural guarantees from definitions.

    Recomputes class and group assignments with inline floor/modulo
    arithmetic (independent of the partition module's own code paths) and
    scans all image pairs per group for the separation guarantee and all
    class pairs per group for adjacency. Returns the list of violations,
    which is empty for a correct partition.
    """
    cfg = part.config
    violations: list[Violation] = []
    strides = (cfg.cell_stride, cfg.cell_stride, cfg.heading_stride)
    n_bins = round(360.0 / cfg.heading_bin_deg)

    # Recompute every record's class from its pose.
    expected_members: dict[tuple[int, int, int], list[str]] = {}
    pose_of: dict[str, GeoPose] = {}
    for r in world.records:
        cid = (
            math.floor(r.pose.east / cfg.cell_size_m),
            math.floor(r.pose.north / cfg.cell_size_m),
            math.floor(r.pose.heading / cfg.heading_bin_deg),
        )
        expected_members.setdefault(cid, []).append(r.id)
        pose_of[r.id] = r.pose

    # Membership: every retained class must hold exactly the records that
    # quantize into it; discarded classes must be exactly the thin ones.
    for cid, members in part.class_members.items():
        expected = sorted(expected_members.get(tuple(cid), []))
        if sorted(members) != expected:
            violations.append(
                Violation("class-membership", (cid,), f"stored members differ from recomputed set")
            )
    retained = set(tuple(c) for c in part.class_members)
    for cid, members in expected_members.items():
        if len(members) >= cfg.min_images_per_class and cid not in retained:
            violations.append(Violation("class-membership", (cid,), "class missing from partition"))

    # Group function (property 1) and assignment correctness.
    listed_in: dict[tuple, list] = {}
    for gid, classes in part.group_classes.items():
        for cid in classes:
            listed_in.setdefault(tuple(cid), []).append(gid)
    for cid in part.class_members:
        expected_gid = tuple(v % s for v, s in zip(cid, strides))
        if tuple(part.class_group[cid]) != expected_gid:
            violations.append(
                Violation(
                    "group-assignment",
                    (cid,),
                    f"assigned {tuple(part.class_group[cid])}, definition gives {expected_gid}",
                )
            )
        lists = listed_in.get(tuple(cid), [])
        if len(lists) != 1 or tuple(lists[0]) != tuple(part.class_group[cid]):
            violations.append(
                Violation("group-assignment", (cid,), f"listed under groups {lists}")
            )

    # Group count (property 3).
    all_groups = {
        (u, v, w)
        for u in range(cfg.cell_stride)
        for v in range(cfg.cell_stride)
        for w in range(cfg.heading_stride)
    }
    if len(all_groups) != cfg.cell_stride * cfg.cell_stride * cfg.heading_stride:
        violations.append(Violation("group-count", (), "enumeration size mismatch"))
    for cid, gid in part.class_group.items():
        if tuple(gid) not in all_groups:
            violations.append(Violation("group-count", (cid,), f"group {tuple(gid)} outside enumeration"))

    # Separation (property 2): same group, different classes -> far apart in
    # space or in heading. Scanned exhaustively over image pairs, chunked.
    min_dist = cfg.cell_size_m * (cfg.cell_stride - 1)
    min_head = cfg.heading_bin_deg * (cfg.heading_stride - 1)
    for gid, classes in part.group_classes.items():
        ids = [rid for cid in classes for rid in part.class_members[cid]]
        if len(ids) < 2:
            continue
        east = np.array([pose_of[r].east for r in ids])
        north = np.array([pose_of[r].north for r in ids])
        heading = np.array([pose_of[r].heading for r in ids])
        cls = np.array(
            [classes.index(cid) for cid in classes for _ in part.class_members[cid]]
        )
        n = len(ids)
        for start in range(0, n, 1024):
            stop = min(start + 1024, n)
            de = east[start:stop, None] - east[None, :]
            dn = north[start:stop, None] - north[None, :]
            dist = np.hypot(de, dn)
            dh = np.abs(heading[start:stop, None] - heading[None, :])
            dh = np.minimum(dh, 360.0 - dh)
            diff_class = cls[start:stop, None] != cls[None, :]
            bad = diff_class & (dist < min_dist) & (dh <= min_head)
            for bi, bj in zip(*np.nonzero(bad)):
                i, j = start + bi, bj
                if i < j:
                    violations.append(
                        Violation(
                            "separation",
                            (classes[cls[i]], classes[cls[j]]),
                            f"images {ids[i]!r}/{ids[j]!r}: {dist[bi, bj]:.2f} m apart, "
                            f"{dh[bi, bj]:.2f} deg apart in group {tuple(gid)}",
                        )
                    )

    # Adjacency (property 4) only holds when both strides exceed one.
    if cfg.cell_stride > 1 and cfg.heading_stride > 1:
        for gid, classes in part.group_classes.items():
            if len(classes) < 2:
                continue
            arr = np.array([list(c) for c in classes])
            for i in range(len(classes)):
                de = np.abs(arr[:, 0] - arr[i, 0])
                dn = np.abs(arr[:, 1] - arr[i, 1])
                dh = np.abs(arr[:, 2] - arr[i, 2]) % n_bins
                dh = np.minimum(dh, n_bins - dh)
                hit = (de <= 1) & (dn <= 1) & (dh <= 1)
                hit[i] = False
                for j in np.nonzero(hit)[0]:
                    if i < j:
                        violations.append(
                            Violation(
                                "adjacency",
                                (classes[i], classes[int(j)]),
                                f"adjacent classes share group {tuple(gid)}",
                            )
                        )
    return violations


def write_world(world: SyntheticWorld, out_dir: str | Path) -> dict[str, Path]:
    """Export manifest + feature stores + oracle latents for the CLI pipeline."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "manifest": out / "manifest.csv",
        "features": out / "features.npz",
        "query_features": out / "query_features.npz",
        "latents": out / "latents.npz",
    }
    save_manifest(world.records, paths["manifest"])
    np.savez(paths["features"], **world.features)
    np.savez(paths["query_features"], **world.query_features)
    np.savez(
        paths["latents"],
        **{rid: oracle_descriptor(world, rid) for rid in world.latent_key_of},
    )
    return paths


def load_features(path: str | Path) -> dict[str, np.ndarray]:
    try:
        with np.load(path) as store:
            return {key: store[key] for key in store.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DomainError(f"cannot read feature store {path}: {exc}") from exc
