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

Maps are computed in float64 and stored as float32, rounded once; the query
perturbation is added before the rounding. ``load_features`` keeps a store's
dtype, so a reloaded world holds the generated bits; the embedding computes in float64.
``load_features`` reads the zip format of a store itself: it reads the
central directory into arrays (one reshape when the entries share a size,
else one walk that follows each entry's lengths), finds the requested ids by
one stable sort of the names, then reads the members in chunks of ``REDUCE_CHUNK_ROWS`` maps, one read per
chunk into one reused buffer, checks each chunk, and
keeps it as it is or, given a ``reduce`` function, only its reduced rows,
so ``geoloc eval`` (descriptors) and a fixed-exponent ``geoloc train``
(pooled rows) never hold maps. ``write_world`` writes each store with its
own zip writer, not ``np.savez``: stored ``.npy`` members, 32 per write, one
fixed 1980-01-01 timestamp, and zip64 records only where a member count or
an offset needs them. Stores written by ``np.savez`` load the same way.

Everything is generated from one seeded stream, so equal configs produce
bit-identical worlds, and byte-identical files that can be checked by hash.
Each image takes two draws from it, its three uniforms and then all its
normals; the maps of one (place, heading) slot are computed together.
"""

from __future__ import annotations

import io
import math
import struct
import tokenize
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atomic import AtomicFile, make_dir
from .errors import DomainError, ManifestError
from .ingest import ImageRecord, ManifestColumns, save_manifest

# All synthetic worlds live in one UTM zone at a plausible in-zone offset.
SYNTH_ZONE_NUMBER = 10
SYNTH_HEMISPHERE = "north"
SYNTH_EAST_OFFSET = 550_000.0
SYNTH_NORTH_OFFSET = 4_180_000.0


@dataclass(frozen=True)
class CityConfig:
    """Geometry, appearance, and noise of a synthetic world.

    ``cell_size_m`` and ``heading_bin_deg`` name the partition geometry the
    world is aligned to (a run config takes them from its partition section):
    image positions jitter less than a quarter cell and headings less than a
    quarter bin around snapped centers. ``nuisance_dim`` and
    ``nuisance_sigma`` control the per-image structured component; zero
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
        if not all(math.isfinite(x) and x > 0 for x in (self.extent_m, self.place_spacing_m, self.cell_size_m)):
            raise DomainError("extents, spacings and cell sizes must be positive and finite")
        if not (math.isfinite(self.heading_bin_deg) and self.heading_bin_deg > 0):
            raise DomainError(f"heading bin must be positive, got {self.heading_bin_deg}")
        if self.extent_m < self.place_spacing_m:
            raise DomainError(
                f"extent {self.extent_m} m is too small for one place at {self.place_spacing_m} m spacing"
            )
        if self.headings_per_place < 1 or self.images_per_place_heading < 1:
            raise DomainError("headings_per_place and images_per_place_heading must be >= 1")
        if self.latent_dim < 2:
            raise DomainError("latent_dim must be >= 2")
        c, h, w = self.feature_map_shape
        if c < 1 or h < 1 or w < 1:
            raise DomainError(f"bad feature map shape {self.feature_map_shape}")
        if not all(s >= 0 for s in (self.noise_sigma, self.domain_shift_sigma, self.nuisance_sigma)):
            raise DomainError("noise sigmas must be >= 0")
        if self.nuisance_dim < 0:
            raise DomainError("nuisance_dim must be >= 0")
        bins = 360.0 / self.heading_bin_deg
        if abs(bins - round(bins)) > 1e-9:
            raise DomainError(f"heading bin {self.heading_bin_deg} does not divide 360 exactly")
        # object.__setattr__ because the dataclass is frozen
        object.__setattr__(self, "feature_map_shape", tuple(self.feature_map_shape))


def _check_maps(block: np.ndarray, ids: Sequence[str], where: str = "") -> None:
    """Raise DomainError, its message prefixed by ``where``, unless ``block`` holds real, finite maps.

    Row ``i`` of ``block`` is the map of ``ids[i]``; a non-finite map is named by its record.
    """
    if block.dtype.kind not in "biuf":
        raise DomainError(f"{where}feature maps must be real numbers, not {block.dtype}")
    # min and max propagate NaN and reach any infinity, without a block-sized temporary.
    if block.size and not (np.isfinite(block.min()) and np.isfinite(block.max())):
        bad = ~np.isfinite(block.reshape(len(block), -1)).all(axis=1)
        raise DomainError(f"{where}feature map of record {ids[bad.argmax()]!r} contains non-finite values")


class FeatureStore(Mapping[str, np.ndarray]):
    """Read-only feature maps by record id, held as one ``(N, C, H, W)`` block.

    Row ``i`` of ``block`` is the map of ``ids[i]``; ``rows`` turns ids into row indices.
    The block keeps its dtype; one that is not real numbers, or a non-finite
    map (named by its record), raises DomainError, so readers need not check again.
    A store that ``load_features`` reduced holds one reduced row per id instead.
    The id → row map is built on the first lookup, so a store read only by
    ``block`` (as ``geoloc eval`` reads its stores) never holds one.
    """

    def __init__(self, ids: Sequence[str], block: np.ndarray) -> None:
        self.ids = list(ids)
        self.block = block
        _check_maps(block, self.ids)

    @cached_property
    def _row(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.ids)}

    def __getitem__(self, rid: str) -> np.ndarray:
        return self.block[self._row[rid]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """Block row index of each id; an absent id raises ManifestError naming it."""
        row = self._row
        try:
            return np.array([row[rid] for rid in ids], dtype=np.intp)
        except KeyError as exc:
            raise ManifestError(f"feature store has no entry for record {exc.args[0]!r}") from None


@dataclass
class SyntheticWorld:
    config: CityConfig
    rows: ManifestColumns
    features: FeatureStore
    # The same store as ``features`` unless the world has a domain shift.
    query_features: FeatureStore
    latents: dict[tuple[int, int], np.ndarray]
    latent_key_of: dict[str, tuple[int, int]]
    max_cross_similarity: float
    dropped_places: int

    @cached_property
    def records(self) -> list[ImageRecord]:  # what save_manifest writes
        return self.rows.records()


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
        weights = np.abs(gram)  # in place from here: exp(30 (|gram| - max |gram|)) * gram
        weights -= weights.max()
        weights *= 30.0
        np.exp(weights, out=weights)
        weights *= gram
        push = weights @ vecs
        norms = np.linalg.norm(push, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        vecs -= 0.3 * push / norms
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def generate_city(cfg: CityConfig) -> SyntheticWorld:
    """Build a deterministic world from the config seed."""
    if cfg.place_spacing_m < cfg.cell_size_m:
        raise DomainError("place spacing below the cell size would merge places into one class")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0x51714]))
    m = cfg.cell_size_m
    alpha = cfg.heading_bin_deg
    n_bins = round(360.0 / alpha)
    n_side = int(cfg.extent_m // cfg.place_spacing_m)

    # Place centers: nominal grid points (row by row) snapped to their cell
    # center, skipping cells that stick out of the extent, plus a small jitter
    # that keeps later image jitter strictly inside the cell.
    grid_x, grid_y = np.meshgrid(np.arange(n_side), np.arange(n_side))
    cells = np.floor((np.stack([grid_x.ravel(), grid_y.ravel()], axis=1) + 0.5) * cfg.place_spacing_m / m)
    cells = cells[((cells + 1.0) * m).max(axis=1) <= cfg.extent_m + 1e-9]
    if not len(cells):
        raise DomainError("no place cell fits fully inside the extent")
    dropped = n_side * n_side - len(cells)
    positions = (cells + 0.5) * m + rng.uniform(-m / 8.0, m / 8.0, size=(len(cells), 2))

    # Heading slots: equally spaced nominal headings snapped to the center of
    # their bin, the same bins at every place, again with a safe jitter margin.
    slot_bins = [int(k * 360.0 / cfg.headings_per_place // alpha) % n_bins for k in range(cfg.headings_per_place)]
    slot_centers = (np.array(slot_bins) + 0.5) * alpha + rng.uniform(
        -alpha / 8.0, alpha / 8.0, size=(len(positions), cfg.headings_per_place)
    )

    latent_keys = [(p, b) for p in range(len(positions)) for b in sorted(set(slot_bins))]
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

    # Each image draws three uniforms (xy, then heading) and then its nuisance, map-noise and
    # domain-shift normals, two generator calls in all; the arithmetic on them runs per slot.
    n = cfg.images_per_place_heading
    nuisance = cfg.nuisance_dim if nuisance_lift is not None and cfg.nuisance_sigma > 0.0 else 0
    shifted = cfg.domain_shift_sigma > 0.0
    n_images = len(positions) * cfg.headings_per_place * n
    uniforms = np.empty((n_images, 3))
    normals = np.empty((n, nuisance + c * h * w * (2 if shifted else 1)))
    lifted = np.empty((n, c))
    normal_rows, nuisance_rows, lifted_rows = list(normals), list(normals[:, :nuisance]), list(lifted)
    maps = normals[:, nuisance:].reshape(n, -1, c, h, w)  # the map noise, then any domain shift
    block = np.empty((n_images, c, h, w), dtype=np.float32)
    query_block = np.empty_like(block) if shifted else block
    slot_keys = [(p, b) for p in range(len(positions)) for b in slot_bins]
    for slot, key in enumerate(slot_keys):
        rows = slice(slot * n, (slot + 1) * n)
        for u, z in zip(uniforms[rows], normal_rows):
            rng.random(out=u)
            rng.standard_normal(out=z)
        chan = lift @ latents[key] + offset
        if nuisance:
            for z, out in zip(nuisance_rows, lifted_rows):
                np.matmul(nuisance_lift, z, out=out)  # one product per image: a batched one rounds differently
            chan = chan + cfg.nuisance_sigma * lifted
        fmap = chan[..., None, None] + cfg.noise_sigma * maps[:, 0]
        block[rows] = fmap
        if shifted:
            query_block[rows] = fmap + cfg.domain_shift_sigma * maps[:, 1]
    # ``Generator.uniform(-a, a)`` is ``-a + (a - -a) * random()``, and ``a - -a`` is ``2.0 * a`` exactly.
    xy = np.repeat(positions, cfg.headings_per_place * n, axis=0) + (-m / 5.0 + 2.0 * (m / 5.0) * uniforms[:, :2])
    heading = (np.repeat(slot_centers.ravel(), n) + (-alpha / 5.0 + 2.0 * (alpha / 5.0) * uniforms[:, 2])) % 360.0
    slot_names = [f"p{p:04d}h{k:02d}" for p in range(len(positions)) for k in range(len(slot_bins))]
    image_names = [f"i{i:03d}" for i in range(n)]
    ids = [slot + image for slot in slot_names for image in image_names]
    latent_key_of = dict(zip(ids, (key for key in slot_keys for _ in range(n))))
    absent = np.full(n_images, np.nan)
    manifest = ManifestColumns(ids, SYNTH_EAST_OFFSET + xy[:, 0], SYNTH_NORTH_OFFSET + xy[:, 1], heading,
                               SYNTH_ZONE_NUMBER, SYNTH_HEMISPHERE, absent, absent, None)

    features = FeatureStore(ids, block)
    return SyntheticWorld(
        config=cfg,
        rows=manifest,
        features=features,
        query_features=FeatureStore(features.ids, query_block) if shifted else features,
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


def write_world(world: SyntheticWorld, out_dir: str | Path) -> dict[str, Path]:
    """Export manifest + float32 feature stores + float64 oracle latents for the CLI pipeline.

    Stores go through ``_write_store`` (stored members, 32 per write, a fixed timestamp, zip64 only
    where needed), so equal worlds give equal bytes; a latent row is its slot's ``oracle_descriptor``.
    """
    out = make_dir(out_dir)
    paths = {
        "manifest": out / "manifest.csv",
        "features": out / "features.npz",
        "query_features": out / "query_features.npz",
        "latents": out / "latents.npz",
    }
    save_manifest(world.records, paths["manifest"])
    slot_of = dict(zip(world.latent_key_of.values(), world.latent_key_of))  # a record id per slot
    slot_row = {key: i for i, key in enumerate(slot_of)}
    units = np.stack([oracle_descriptor(world, rid) for rid in slot_of.values()])
    latents = FeatureStore(list(world.latent_key_of), units[[slot_row[k] for k in world.latent_key_of.values()]])
    for name, store in (("features", world.features), ("query_features", world.query_features), ("latents", latents)):
        with AtomicFile(paths[name], "wb") as fh:
            _write_store(fh, store.ids, store.block)
    return paths


# The end record's central directory size and offset. In a zip64 archive a
# 20-byte locator follows the 56-byte zip64 end record, whose values replace them.
_END = struct.Struct("<12xII")
_END64 = struct.Struct("<40xQQ")
# Enough of a file's tail to hold the end record, its longest comment and the zip64 records.
_TAIL_BYTES = 22 + 0xFFFF + 76
# A central directory entry's 46 fixed bytes: the walk reads its signature and its
# name, extra field and comment lengths, and keeps the bytes as one row of
# ``_CENTRAL_ROW`` ("version needed" is the low byte of its field).
_CENTRAL = struct.Struct("<4s24xHHH12x")
_CENTRAL_SIGNATURE = 0x02014B50  # b"PK\x01\x02" read as a little-endian integer
_CENTRAL_ROW = np.dtype({"names": ["signature", "version", "flags", "method", "crc", "csize", "usize", "lengths",
                                   "offset"],
                         "formats": ["<u4", "u1", "<u2", "<u2", "<u4", "<u4", "<u4", ("<u2", 3), "<u4"],
                         "offsets": [0, 6, 8, 10, 16, 20, 24, 28, 42], "itemsize": 46})
# A zip member's local header: signature, flags, compression, name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s2xHH16xHH")
# Encrypted, compressed-patch and strongly encrypted members cannot be read.
_UNREADABLE_FLAGS = 0x01 | 0x20 | 0x40
_UTF8_NAME_FLAG = 0x800
# Maps ``load_features`` stages and checks before it keeps or reduces them;
# 32 was at least as fast as 128 or 256 on eval_large's stores.
REDUCE_CHUNK_ROWS = 32
Reduce = Callable[[np.ndarray], np.ndarray]  # one row out per map of a staged chunk


# The zip32 limits: a member count or a byte offset that reaches one needs zip64 records.
_ZIP32_MEMBERS = 0xFFFF
_ZIP32_BYTES = 0xFFFFFFFF
_DOS_DATE = (1 << 5) | 1  # 1980-01-01, with time 00:00: the stamp of every member
# Every field of a local header and of a central directory entry, as ``_write_store`` packs them.
_LOCAL_ENTRY = struct.Struct("<4sHHHHHIIIHH")
_CENTRAL_ENTRY = struct.Struct("<4sHHHHHHIIIHHHHHII")


def _write_store(fh: BinaryIO, ids: Sequence[str], block: np.ndarray) -> None:
    """Write row ``i`` of ``block`` to ``fh`` as the stored zip member ``ids[i].npy``, bytes as ``np.savez`` has them.

    Every member has the one ``.npy`` 1.0 header, its CRC-32 continues the header's, and its date
    is 1980-01-01 00:00. Members go out ``REDUCE_CHUNK_ROWS`` per write, then the central directory
    and end records; an offset or count past a zip32 limit gets zip64 fields, as ``zipfile`` writes them.
    """
    block = np.ascontiguousarray(block)
    npy = io.BytesIO()
    descr = np.lib.format.dtype_to_descr(block.dtype)
    np.lib.format.write_array_header_1_0(npy, {"descr": descr, "fortran_order": False, "shape": block.shape[1:]})
    header, row_bytes = npy.getvalue(), block.itemsize * math.prod(block.shape[1:])
    size, header_crc, data = len(header) + row_bytes, zlib.crc32(header), memoryview(block.reshape(-1).view(np.uint8))
    central, offset = [], 0
    for start in range(0, len(ids), REDUCE_CHUNK_ROWS):
        parts = []
        for i in range(start, min(start + REDUCE_CHUNK_ROWS, len(ids))):
            name = f"{ids[i]}.npy".encode("ascii")  # record ids of a synthetic world are ASCII
            row = data[i * row_bytes : (i + 1) * row_bytes]
            crc = zlib.crc32(row, header_crc)
            parts += (_LOCAL_ENTRY.pack(b"PK\x03\x04", 20, 0, 0, 0, _DOS_DATE, crc, size, size, len(name), 0),
                      name, header, row)
            extra, version = (struct.pack("<HHQ", 1, 8, offset), 45) if offset >= _ZIP32_BYTES else (b"", 20)
            central += (_CENTRAL_ENTRY.pack(b"PK\x01\x02", 0x300 | version, version, 0, 0, 0, _DOS_DATE, crc,
                                            size, size, len(name), len(extra), 0, 0, 0, 0o600 << 16,
                                            0xFFFFFFFF if extra else offset), name, extra)
            offset += 30 + len(name) + size
        fh.write(b"".join(parts))
    directory, count = b"".join(central), len(ids)
    end, fields = [directory], (count, count, len(directory), offset)
    if count >= _ZIP32_MEMBERS or max(offset, len(directory)) >= _ZIP32_BYTES:
        end += (struct.pack("<4sQ2H2I4Q", b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, len(directory), offset),
                struct.pack("<4sIQI", b"PK\x06\x07", 0, offset + len(directory), 1))
        fields = (0xFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    end.append(struct.pack("<4s4H2IH", b"PK\x05\x06", 0, 0, *fields, 0))
    fh.write(b"".join(end))


def _central_directory(fh: BinaryIO) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The members of a zip file, and where its central directory starts.

    Returns (names, entry table, compressed sizes, uncompressed sizes, local header offsets, central
    directory offset). ``names`` is one bytes array: row ``i`` holds entry ``i``'s name bytes, padded
    with NULs to the longest name, and ``table["lengths"][i, 0]`` is that name's length, NULs of its
    own included. When every entry has the first one's size, the table and the names are read off
    one reshape of the directory; otherwise a walk follows each entry's lengths. Either way the
    version, zip64 and name-encoding checks then run on the table, so the first faulty entry, of
    whatever fault, is the one reported, as if each entry were checked in turn. The names of a
    directory that is not all ASCII are decoded here only to be checked (``_member_names``).
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(max(size - _TAIL_BYTES, 0))
    tail = fh.read()
    # The end record is the last signature whose comment length reaches the end of the file,
    # which passes over the same four bytes inside an archive comment.
    at = tail.rfind(b"PK\x05\x06", 0, len(tail) - 18)
    while at >= 0 and at + 22 + int.from_bytes(tail[at + 20 : at + 22], "little") != len(tail):
        at = tail.rfind(b"PK\x05\x06", 0, at)
    if at < 0:
        raise ValueError("no zip end record")
    cd_size, cd_offset = _END.unpack_from(tail, at)
    end = size - len(tail) + at
    if at >= 76 and tail[at - 20 : at - 16] == b"PK\x06\x07" and tail[at - 76 : at - 72] == b"PK\x06\x06":
        cd_size, cd_offset = _END64.unpack_from(tail, at - 76)
        end -= 76
    if cd_size > end:
        raise ValueError("central directory larger than the file")
    fh.seek(end - cd_size)
    cd = fh.read(cd_size)
    table = names = name_lengths = fault = None
    if cd_size >= 46:  # entries of one size: the walk would step through the rows of one reshape
        _, n, m, k = _CENTRAL.unpack_from(cd, 0)
        if cd_size % (46 + n + m + k) == 0:
            entries = np.frombuffer(cd, np.uint8).reshape(-1, 46 + n + m + k)
            table = np.ascontiguousarray(entries[:, :46]).view(_CENTRAL_ROW)[:, 0]
            if (table["signature"] == _CENTRAL_SIGNATURE).all() and (table["lengths"] == (n, m, k)).all():
                names = np.ascontiguousarray(entries[:, 46 : 46 + n]).view(f"S{n}")[:, 0] if n else np.zeros(
                    len(table), "S1")
                name_lengths = table["lengths"][:, 0]
    if names is None:
        fixed, listed, pos = bytearray(), [], 0
        try:  # the walk follows lengths only; its fault is reported after any of the entries before it
            while pos < cd_size:
                signature, n, m, k = _CENTRAL.unpack_from(cd, pos)
                if signature != b"PK\x01\x02":
                    raise ValueError("bad central directory entry")
                listed.append(cd[pos + 46 : pos + 46 + n])
                fixed += cd[pos : pos + 46]
                pos += 46 + n + m + k
            if pos != cd_size:
                raise ValueError("central directory entries overrun it")
        except (ValueError, struct.error) as exc:
            fault = exc
        table = np.frombuffer(fixed, _CENTRAL_ROW)
        names = np.array(listed, dtype=f"S{max(map(len, listed), default=1) or 1}")
        name_lengths = np.fromiter(map(len, listed), np.intp, len(listed))  # the last may be cut short
        del listed
    usize, csize, offsets = (table[field].astype(np.int64) for field in ("usize", "csize", "offset"))
    wide = (usize == 0xFFFFFFFF) | (csize == 0xFFFFFFFF) | (offsets == 0xFFFFFFFF)  # zip64 fields in the extra
    versions, flags = table["version"], table["flags"]
    # An ASCII name reads the same in UTF-8 and in code page 437.
    ascii_names = names.view(np.uint8).max(initial=0) < 0x80
    odd = np.flatnonzero(wide | (versions > 63)).tolist() if ascii_names else range(len(table))
    if wide.any():
        lengths = table["lengths"].astype(np.int64)
        ends = np.cumsum(46 + lengths.sum(axis=1))
    # Entries that need a look of their own, in order, so the first faulty entry is the one reported.
    zip64 = {}
    for row in odd:
        name = names[row].ljust(name_lengths[row], b"\0")
        if not ascii_names:
            _decode_name(name, flags[row])
        if versions[row] > 63:  # zipfile's limit: later versions may need features this reader lacks
            raise ValueError(f"member {name.decode('cp437')!r} needs zip version {int(versions[row]) / 10}")
        if wide[row]:
            _, m, k = lengths[row].tolist()
            fields = [int(usize[row]), int(csize[row]), int(offsets[row])]
            zip64[row] = _zip64_fields(cd[ends[row] - k - m : ends[row] - k], fields)
    if fault is not None:
        raise fault
    for row, fields in zip64.items():
        usize[row], csize[row], offsets[row] = fields
    offsets += end - cd_size - cd_offset  # bytes before the archive, as in a self-extracting one
    return names, table, csize, usize, offsets, end - cd_size


def _decode_name(name: bytes, flags: int) -> str:
    """A member name as ``zipfile`` reads it: UTF-8 when flagged or ASCII, else code page 437."""
    return name.decode("utf-8" if flags & _UTF8_NAME_FLAG or name.isascii() else "cp437")


def _member_names(names: np.ndarray, table: np.ndarray) -> list[str]:
    """Every name of a ``_central_directory`` as ``zipfile`` reads it."""
    return [_decode_name(name.ljust(length, b"\0"), flags)
            for name, length, flags in zip(names.tolist(), table["lengths"][:, 0].tolist(), table["flags"].tolist())]


def _zip64_fields(extra: bytes, fields: list[int]) -> list[int]:
    """``fields`` (uncompressed size, compressed size, offset), each 0xFFFFFFFF one read from the zip64 extra field."""
    while len(extra) >= 4:
        tag, size = struct.unpack_from("<HH", extra)
        if tag == 1:
            wide = iter(struct.unpack_from(f"<{size // 8}Q", extra, 4))
            return [next(wide, f) if f == 0xFFFFFFFF else f for f in fields]
        extra = extra[4 + size :]
    return fields


def _npy_layout(header: bytes) -> tuple[tuple[int, ...], bool, np.dtype, int]:
    """(shape, Fortran order, dtype, data bytes) of one ``.npy`` header."""
    fp = io.BytesIO(header)
    version = np.lib.format.read_magic(fp)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"unsupported .npy format version {version}")
    read = np.lib.format.read_array_header_1_0 if version == (1, 0) else np.lib.format.read_array_header_2_0
    shape, fortran, dtype = read(fp)
    return shape, fortran, dtype, dtype.itemsize * math.prod(shape)


def _find_members(
    path: str | Path, names: np.ndarray, table: np.ndarray, ids: Iterable[str] | None
) -> tuple[list[str], np.ndarray]:
    """(ids, entry rows) of the members ``load_features`` reads: those of ``ids``, or every member.

    One stable sort of the names serves every lookup, and a repeated name resolves to its last entry,
    as in ``zipfile``. Without ``ids`` the members come in the order their names first appear. A
    member whose name does not end in ``.npy`` raises DomainError, requested or not; then the first
    requested id without a member raises ManifestError.
    """
    # Names of a directory that is not all ASCII are looked up by their UTF-8 text.
    texts = None if names.view(np.uint8).max(initial=0) < 0x80 else _member_names(names, table)
    # The last four of each name's own bytes, taken at its length: trailing NULs count.
    lengths, codes = table["lengths"][:, 0].astype(np.intp), names.view(np.uint8)
    starts = np.arange(len(names)) * names.itemsize
    stray = lengths < 4
    for j, byte in enumerate(b".npy"):
        stray |= codes[starts + np.maximum(lengths - 4 + j, 0)] != byte
    if stray.any():
        i = int(stray.argmax())
        name = texts[i] if texts is not None else names[i].ljust(int(table["lengths"][i, 0]), b"\0").decode("ascii")
        raise DomainError(f"feature store {path}: member {name!r} is not an .npy array")
    if texts is not None:
        names = np.array([text.encode("utf-8") for text in texts], dtype=bytes)
    order = np.argsort(names, kind="stable")
    ordered = names[order]
    if ids is None:
        last = np.append(ordered[1:] != ordered[:-1], True)  # the last entry of each run of one name
        if last.all():
            rows = first = np.arange(len(names))
        else:
            first = order[np.append(True, last[:-1])]  # the first entry of each run, runs in the same order
            by_first = np.argsort(first)
            rows, first = order[last][by_first], first[by_first]
        if texts is None:
            keys = [name[:-4].decode("ascii") for name in names[first].tolist()]
        else:
            keys = [texts[i][:-4] for i in first.tolist()]
        return keys, rows
    keys = list(dict.fromkeys(ids))
    wanted = np.array([f"{k}.npy".encode("utf-8", "surrogatepass") for k in keys], dtype=bytes)
    if wanted.itemsize != ordered.itemsize:  # one width, so neither side is cut to the other's
        width = f"S{max(wanted.itemsize, ordered.itemsize)}"
        wanted, ordered = wanted.astype(width), ordered.astype(width)
    at = np.searchsorted(ordered, wanted, "right") - 1  # the last entry of the name, if it is there
    found = (at >= 0) & (ordered[at] == wanted) if len(ordered) else np.zeros(len(keys), bool)
    if not found.all():
        missing = keys[int(found.argmin())]
        raise ManifestError(f"feature store {path} has no entry for record {missing!r}")
    return keys, order[at]


def load_features(
    path: str | Path,
    ids: Iterable[str] | None = None,
    reduce: Reduce | None = None,
) -> FeatureStore:
    """Arrays of a keyed ``.npz`` store (one member per record id), by id.

    Reads only the members named in ``ids`` (every member when ``ids`` is
    None; a repeated id loads once). The central directory (after an archive
    comment or zip64 records too) is read at once and parsed into arrays, an
    all-ASCII one without a Python object per member (``_central_directory``,
    ``_find_members``); every offset and length is checked against the file
    before it sizes a read. Members are read in file
    order, ``REDUCE_CHUNK_ROWS`` at a time, with one read of a chunk's span
    (or, for sparse ids, of each member) into one buffer, reused by every
    chunk and grown only when a chunk needs more. In that buffer each member's local
    header, ``.npy`` header and CRC-32 are checked and its data is copied into
    a staging block. Each chunk is checked as a store checks its block, then
    goes into those ids' rows of the returned block as it is, or as
    ``reduce(chunk)``, one row per map, so no map block is allocated
    (``reduce`` is not called when ``ids`` is empty). A reduced block of 2-D
    rows is Fortran-ordered, the layout ``retrieval.build_index`` adopts
    without a copy: eval's reduce projects, so its block is the index
    matrix. Stored and deflated members load, C- or Fortran-order and of any
    byte order, all of one shape and dtype. A missing id raises ManifestError; an unreadable or corrupt
    store, an object-dtype member, mixed layouts or a non-finite map among
    those read raise DomainError. Central directory faults come first; then
    a non-finite map can be reported before a layout fault of a later chunk.
    """
    try:
        with open(path, "rb") as fh:
            names, table, csize, usize, offsets, start = _central_directory(fh)
            keys, rows = _find_members(path, names, table, ids)
            del names
            # A member spans from its local header to the next one or to the central directory.
            lo = offsets[rows]
            if not ((lo >= 0) & (lo < start)).all():
                raise ValueError("a member's local header lies outside the archive")
            bounds = np.sort(np.append(offsets, start))
            hi = bounds[np.searchsorted(bounds, lo, "right")]
            order = np.argsort(lo, kind="stable")
            known: dict[bytes, tuple] = {}
            block = staging = first = out = None
            buf = bytearray()  # every chunk's read, grown only when a chunk needs more
            for c in range(0, len(keys), REDUCE_CHUNK_ROWS):
                staged = order[c : c + REDUCE_CHUNK_ROWS]
                span_lo, span_hi = lo[staged].tolist(), hi[staged].tolist()
                extents = hi[staged] - lo[staged]
                if span_hi[-1] - span_lo[0] <= 4 * extents.sum():  # else sparse ids: read each member
                    spans, at = [(span_lo[0], span_hi[-1])], lo[staged] - span_lo[0]
                else:
                    spans, at = list(zip(span_lo, span_hi)), np.cumsum(extents) - extents
                size = sum(b - a for a, b in spans)
                if len(buf) < size:
                    buf = bytearray(size)
                view, filled = memoryview(buf)[:size], 0
                for a, b in spans:
                    fh.seek(a)
                    if fh.readinto(view[filled : filled + b - a]) != b - a:
                        raise ValueError("the file ends inside a member")
                    filled += b - a
                member = rows[staged]
                meta = np.stack([staged, at, table["flags"][member], table["method"][member], table["crc"][member],
                                 csize[member], usize[member]], axis=1).tolist()
                for row, (j, p, cflags, cmethod, crc, csize_j, usize_j) in enumerate(meta):
                    key = keys[j]
                    name = f"{key}.npy"
                    signature, flags, method, n, m = _LOCAL_HEADER.unpack_from(view, p)
                    d = p + 30 + n + m  # the member's first byte
                    if signature != b"PK\x03\x04":
                        raise ValueError(f"bad local header signature for member {name!r}")
                    local_name = view[p + 30 : p + 30 + n]
                    if local_name != name.encode("utf-8" if cflags & _UTF8_NAME_FLAG or name.isascii() else "cp437"):
                        raise ValueError(f"member {name!r} has local header name {bytes(local_name)!r}")
                    if (flags | cflags) & _UNREADABLE_FLAGS:
                        raise ValueError(f"member {name!r} is encrypted")
                    if method != cmethod or method not in (0, zlib.DEFLATED):  # stored or deflated
                        raise ValueError(f"member {name!r} has unsupported compression {cmethod}")
                    data = view[d : d + csize_j]
                    if method == zlib.DEFLATED:
                        data = memoryview(zlib.decompressobj(-zlib.MAX_WBITS).decompress(data, usize_j + 1))
                    if len(data) != usize_j:
                        raise ValueError(f"member {name!r} holds {len(data)} bytes, its directory entry says {usize_j}")
                    if data[:6] != b"\x93NUMPY":
                        raise ValueError(f"member {name!r} is not an .npy array")
                    hlen = (10 + int.from_bytes(data[8:10], "little") if data[6:7] == b"\x01"  # .npy 1.0
                            else 12 + int.from_bytes(data[8:12], "little"))
                    header = data[:hlen].tobytes()
                    shape, fortran, dtype, nbytes = known.get(header) or known.setdefault(header, _npy_layout(header))
                    if dtype.hasobject:
                        raise DomainError(f"feature store {path}: member {key!r} holds Python objects (dtype {dtype})")
                    if usize_j - hlen != nbytes:
                        raise DomainError(f"feature store {path}: member {key!r} holds {usize_j - hlen} data bytes, "
                                          f"its header says {nbytes}")
                    if block is None:
                        block = np.empty((min(len(keys), REDUCE_CHUNK_ROWS), *shape), dtype=dtype)
                        staging = memoryview(block.reshape(-1).view(np.uint8))
                        first, layout = key, (shape, dtype)
                    elif (shape, dtype) != layout:
                        raise DomainError(f"feature store {path} mixes member layouts: {key!r} is {dtype}{list(shape)}, "
                                          f"{first!r} is {block.dtype}{list(block.shape[1:])}")
                    if zlib.crc32(data) != crc:
                        raise ValueError(f"Bad CRC-32 for member {key!r}")
                    if fortran:
                        block[row] = np.frombuffer(data[hlen:], dtype).reshape(shape[::-1]).T
                    else:
                        staging[row * nbytes : (row + 1) * nbytes] = data[hlen:]
                chunk = block[: len(staged)]
                _check_maps(chunk, [keys[j] for j in staged.tolist()], f"feature store {path}: ")
                reduced = chunk if reduce is None else reduce(chunk)
                if out is None:
                    out = np.empty((len(keys), *reduced.shape[1:]), dtype=reduced.dtype,
                                   order="F" if reduce is not None and reduced.ndim == 2 else "C")
                out[staged] = reduced
    # numpy's .npy header reader lets a tokenizer error through on a mangled header dict.
    except (OSError, ValueError, OverflowError, SyntaxError, tokenize.TokenError, struct.error, zlib.error) as exc:
        raise DomainError(f"cannot read feature store {path}: {exc}") from exc
    try:
        return FeatureStore(keys, np.empty(0) if out is None else out)
    except DomainError as exc:
        raise DomainError(f"feature store {path}: {exc}") from None
