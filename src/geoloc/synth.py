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
``load_features`` reads every store through one loop: it stages
``REDUCE_CHUNK_ROWS`` maps at a time, checks each chunk, and keeps it as it
is or, given a ``reduce`` function, only its reduced rows, so ``geoloc
eval`` and a fixed-exponent ``geoloc train`` never hold maps.

Everything is generated from one seeded stream, so equal configs produce
bit-identical worlds.
"""

from __future__ import annotations

import io
import math
import struct
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atomic import AtomicFile, make_dir
from .errors import DomainError, ManifestError
from .ingest import ImageRecord, save_manifest
from .partition import GeoPose

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
    """

    def __init__(self, ids: Sequence[str], block: np.ndarray) -> None:
        self.ids = list(ids)
        self.block = block
        _check_maps(block, self.ids)
        self._row = {rid: i for i, rid in enumerate(self.ids)}

    def __getitem__(self, rid: str) -> np.ndarray:
        return self.block[self._row[rid]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """Block row index of each id; an absent id raises ManifestError naming it."""
        try:
            return np.array([self._row[rid] for rid in ids], dtype=np.intp)
        except KeyError as exc:
            raise ManifestError(f"feature store has no entry for record {exc.args[0]!r}") from None


@dataclass
class SyntheticWorld:
    config: CityConfig
    records: list[ImageRecord]
    features: FeatureStore
    # The same store as ``features`` unless the world has a domain shift.
    query_features: FeatureStore
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

    records: list[ImageRecord] = []
    n_images = len(positions) * cfg.headings_per_place * cfg.images_per_place_heading
    block = np.empty((n_images, c, h, w), dtype=np.float32)
    shifted = cfg.domain_shift_sigma > 0.0
    query_block = np.empty_like(block) if shifted else block
    latent_key_of: dict[str, tuple[int, int]] = {}
    for p, pos in enumerate(positions):
        for k, h_bin in enumerate(slot_bins):
            slot_chan = lift @ latents[(p, h_bin)] + offset
            for i in range(cfg.images_per_place_heading):
                xy = pos + rng.uniform(-m / 5.0, m / 5.0, size=2)
                heading = (slot_centers[p, k] + rng.uniform(-alpha / 5.0, alpha / 5.0)) % 360.0
                rid = f"p{p:04d}h{k:02d}i{i:03d}"
                chan = slot_chan
                if nuisance_lift is not None and cfg.nuisance_sigma > 0.0:
                    chan = chan + cfg.nuisance_sigma * (
                        nuisance_lift @ rng.standard_normal(cfg.nuisance_dim)
                    )
                row = len(records)
                fmap = chan[:, None, None] + cfg.noise_sigma * rng.standard_normal((c, h, w))
                block[row] = fmap
                if shifted:
                    query_block[row] = fmap + cfg.domain_shift_sigma * rng.standard_normal((c, h, w))
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

    features = FeatureStore([r.id for r in records], block)
    return SyntheticWorld(
        config=cfg,
        records=records,
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
    """Export manifest + float32 feature stores + float64 oracle latents for the CLI pipeline."""
    out = make_dir(out_dir)
    paths = {
        "manifest": out / "manifest.csv",
        "features": out / "features.npz",
        "query_features": out / "query_features.npz",
        "latents": out / "latents.npz",
    }
    save_manifest(world.records, paths["manifest"])
    stores = {
        "features": world.features,
        "query_features": world.query_features,
        "latents": {rid: oracle_descriptor(world, rid) for rid in world.latent_key_of},
    }
    for name, arrays in stores.items():
        # Through a file object, so np.savez appends no ".npz" to the temporary name.
        with AtomicFile(paths[name], "wb") as fh:
            np.savez(fh, **arrays)
    return paths


# A zip member's local header: signature, flags, compression, name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s2xHH16xHH")
_LOCAL_SIGNATURE = b"PK\x03\x04"
# Encrypted, compressed-patch and strongly encrypted members cannot be read.
_UNREADABLE_FLAGS = 0x01 | 0x20 | 0x40
_UTF8_NAME_FLAG = 0x800
# Read buffer of a store: members are read in file order, most from this buffer.
_STORE_BUFFER_BYTES = 1 << 20
# Maps ``load_features`` stages and checks before it keeps or reduces them;
# 32 was at least as fast as 128 or 256 on eval_large's stores.
REDUCE_CHUNK_ROWS = 32
Reduce = Callable[[np.ndarray], np.ndarray]  # one row out per map of a staged chunk


def _read_exact(src: BinaryIO, size: int) -> bytes:
    data = src.read(size)
    if len(data) != size:
        raise EOFError("feature store ends inside a member")
    return data


def _npy_header(src: BinaryIO) -> bytes:
    """The header bytes of the ``.npy`` array ``src`` is positioned at, up to its data."""
    prefix = src.read(10)
    if len(prefix) < 10 or prefix[:6] != b"\x93NUMPY":
        raise ValueError("member is not an .npy array")
    if prefix[6] == 1:
        size = int.from_bytes(prefix[8:10], "little")
    else:
        prefix += _read_exact(src, 2)
        size = int.from_bytes(prefix[8:12], "little")
    return prefix + _read_exact(src, size)


def _npy_layout(header: bytes, known: dict[bytes, tuple]) -> tuple[tuple[int, ...], bool, np.dtype]:
    """(shape, Fortran order, dtype) of one ``.npy`` header.

    ``known`` maps header bytes already parsed to their layout, so a store
    whose members share one header parses it once.
    """
    layout = known.get(header)
    if layout is None:
        fp = io.BytesIO(header)
        version = np.lib.format.read_magic(fp)
        if version == (1, 0):
            layout = np.lib.format.read_array_header_1_0(fp)
        elif version == (2, 0):
            layout = np.lib.format.read_array_header_2_0(fp)
        else:
            raise ValueError(f"unsupported .npy format version {version}")
        known[header] = layout
    return layout


def _member_source(fh: BinaryIO, info: zipfile.ZipInfo) -> BinaryIO:
    """Check a member's local header and return a stream at its first uncompressed byte.

    A stored member is read from ``fh`` itself; a deflated one is inflated
    into memory. The checks are the ones ``ZipFile.open`` makes: the
    signature, the name against the central directory's, no encryption, and
    a compression this reader knows.
    """
    fh.seek(info.header_offset)
    signature, flags, method, name_len, extra_len = _LOCAL_HEADER.unpack(_read_exact(fh, _LOCAL_HEADER.size))
    if signature != _LOCAL_SIGNATURE:
        raise zipfile.BadZipFile(f"bad local header signature for member {info.filename!r}")
    name = _read_exact(fh, name_len + extra_len)[:name_len]
    if name != info.orig_filename.encode("utf-8" if info.flag_bits & _UTF8_NAME_FLAG else "cp437"):
        raise zipfile.BadZipFile(f"member {info.filename!r} has local header name {name!r}")
    if (flags | info.flag_bits) & _UNREADABLE_FLAGS:
        raise zipfile.BadZipFile(f"member {info.filename!r} is encrypted")
    if method != info.compress_type or method not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        raise zipfile.BadZipFile(f"member {info.filename!r} has unsupported compression {info.compress_type}")
    if method == zipfile.ZIP_STORED:
        if info.compress_size != info.file_size:
            raise zipfile.BadZipFile(f"stored member {info.filename!r} has unequal sizes")
        return fh
    data = zlib.decompress(_read_exact(fh, info.compress_size), -zlib.MAX_WBITS)
    if len(data) != info.file_size:
        raise zipfile.BadZipFile(f"member {info.filename!r} inflates to {len(data)} bytes, not {info.file_size}")
    return io.BytesIO(data)


def load_features(
    path: str | Path,
    ids: Iterable[str] | None = None,
    reduce: Reduce | None = None,
) -> FeatureStore:
    """Arrays of a keyed ``.npz`` store (one member per record id), by id.

    Reads only the members named in ``ids`` (every member when ``ids`` is
    None; a repeated id loads once). ``zipfile`` reads the central
    directory; each member is then read once, in file order: its local
    header and ``.npy`` header are checked and its data is read straight
    into a staging block of ``REDUCE_CHUNK_ROWS`` rows. Each full chunk (and
    the last) is checked as a store checks its block, then goes into the
    rows of those ids in the returned store's block: as it is, or, with
    ``reduce``, as ``reduce(chunk)``, one row per map, so the
    ``(n, *shape)`` map block is never allocated. ``reduce`` is not called
    when ``ids`` is empty. Stored and deflated (``np.savez_compressed``)
    members load; C- and Fortran-order members of any byte order keep their
    values. Every member must share one shape and dtype, and its CRC-32 must
    match. An id missing from the store raises ManifestError; an unreadable
    or corrupt store, an object-dtype member, mixed shapes or dtypes, or a
    non-finite map among those read raise DomainError. As chunks are checked
    in turn, a non-finite map can be reported before a later member's layout
    error, with or without ``reduce``.
    """
    try:
        with open(path, "rb", buffering=_STORE_BUFFER_BYTES) as fh, zipfile.ZipFile(fh) as zf:
            names = list(dict.fromkeys(zf.namelist()))
            stray = next((n for n in names if not n.endswith(".npy")), None)
            if stray is not None:
                raise DomainError(f"feature store {path}: member {stray!r} is not an .npy array")
            if ids is None:
                keys = [n.removesuffix(".npy") for n in names]
            else:
                keys = list(dict.fromkeys(ids))
                present = set(names)
                missing = next((k for k in keys if f"{k}.npy" not in present), None)
                if missing is not None:
                    raise ManifestError(f"feature store {path} has no entry for record {missing!r}")
            infos = [zf.getinfo(f"{key}.npy") for key in keys]
            known: dict[bytes, tuple] = {}
            block = rows = scratch = first = out = None
            # The store index of each map staged in ``block``, in staging order.
            staged: list[int] = []
            order = sorted(range(len(keys)), key=lambda i: infos[i].header_offset)
            for done, i in enumerate(order, 1):
                key, info = keys[i], infos[i]
                src = _member_source(fh, info)
                header = _npy_header(src)
                shape, fortran, dtype = _npy_layout(header, known)
                if dtype.hasobject:
                    raise DomainError(f"feature store {path}: member {key!r} holds Python objects (dtype {dtype})")
                if block is None:
                    n = min(len(keys), REDUCE_CHUNK_ROWS)
                    block = np.empty((n, *shape), dtype=dtype)
                    # Each row as raw bytes, for readinto and the CRC whatever the byte order.
                    rows = block.reshape(n, -1).view(np.uint8)
                    scratch = np.empty(rows.shape[1], dtype=np.uint8)
                    first = key
                elif (shape, dtype) != (block.shape[1:], block.dtype):
                    raise DomainError(
                        f"feature store {path} mixes member layouts: {key!r} is {dtype}{list(shape)}, "
                        f"{first!r} is {block.dtype}{list(block.shape[1:])}"
                    )
                if info.file_size - len(header) != rows.shape[1]:
                    raise DomainError(
                        f"feature store {path}: member {key!r} holds {info.file_size - len(header)} data bytes, "
                        f"its header says {rows.shape[1]}"
                    )
                row = len(staged)
                target = scratch if fortran else rows[row]
                if src.readinto(target) != rows.shape[1]:
                    raise EOFError(f"feature store ends inside member {key!r}")
                if zlib.crc32(target, zlib.crc32(header)) != info.CRC:
                    raise zipfile.BadZipFile(f"Bad CRC-32 for member {key!r}")
                if fortran:
                    block[row] = scratch.view(dtype).reshape(shape[::-1]).T
                staged.append(i)
                if len(staged) == len(block) or done == len(keys):
                    chunk = block[: len(staged)]
                    _check_maps(chunk, [keys[j] for j in staged], f"feature store {path}: ")
                    reduced = chunk if reduce is None else reduce(chunk)
                    if out is None:
                        out = np.empty((len(keys), *reduced.shape[1:]), dtype=reduced.dtype)
                    out[staged] = reduced
                    staged.clear()
    # numpy's .npy header reader lets a tokenizer error through on a mangled header dict.
    except (OSError, EOFError, ValueError, SyntaxError, tokenize.TokenError, zipfile.BadZipFile, zlib.error) as exc:
        raise DomainError(f"cannot read feature store {path}: {exc}") from exc
    try:
        return FeatureStore(keys, np.empty(0) if out is None else out)
    except DomainError as exc:
        raise DomainError(f"feature store {path}: {exc}") from None
