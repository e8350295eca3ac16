"""Container-registry substrate: Docker Hub and MinIO-backed regional
registries, content-addressed blobs, manifests, pulls and caching."""

from .base import ImageReference, Registry, RegistryError, mirror_image
from .blobstore import BlobNotFound, BlobRecord, BlobStore
from .cache import CacheFull, EvictionRecord, ImageCache
from .chunks import (
    DEFAULT_CHUNK_SIZE_BYTES,
    Chunk,
    ChunkFetchOutcome,
    ChunkLedger,
    ChunkMap,
    ChunkSwarmPlanner,
)
from .client import PullPolicy, PullResult, RegistryClient
from .digest import digest_bytes, digest_text, is_digest, short_digest
from .discovery import DiscoveryBackend, GossipDiscovery, OmniscientDiscovery
from .hub import DockerHub, PointOfPresence, PullRateLimiter, RateLimitExceeded
from .images import OFFICIAL_BASES, BaseImage, build_image, split_sizes, synthetic_blob
from .manifest import ImageManifest, LayerDescriptor, ManifestList
from .minio import (
    BucketAlreadyExists,
    MinioError,
    MinioStore,
    NoSuchBucket,
    NoSuchKey,
    ObjectInfo,
    QuotaExceeded,
)
from .p2p import (
    AdaptiveReplicator,
    LayerSource,
    P2PPullResult,
    P2PRegistry,
    PeerIndex,
    PeerSwarm,
    PullPlanner,
    ReplicationAction,
    ReplicatorCycle,
    SourceKind,
)
from .regional import RegionalRegistry
from .repository import ManifestNotFound, Repository, RepositoryIndex

__all__ = [
    "AdaptiveReplicator",
    "BaseImage",
    "BlobNotFound",
    "BlobRecord",
    "BlobStore",
    "BucketAlreadyExists",
    "CacheFull",
    "Chunk",
    "ChunkFetchOutcome",
    "ChunkLedger",
    "ChunkMap",
    "ChunkSwarmPlanner",
    "DEFAULT_CHUNK_SIZE_BYTES",
    "DiscoveryBackend",
    "DockerHub",
    "EvictionRecord",
    "GossipDiscovery",
    "ImageCache",
    "ImageManifest",
    "ImageReference",
    "LayerDescriptor",
    "LayerSource",
    "ManifestList",
    "ManifestNotFound",
    "MinioError",
    "MinioStore",
    "NoSuchBucket",
    "NoSuchKey",
    "OFFICIAL_BASES",
    "ObjectInfo",
    "OmniscientDiscovery",
    "P2PPullResult",
    "P2PRegistry",
    "PeerIndex",
    "PeerSwarm",
    "PointOfPresence",
    "PullPlanner",
    "PullPolicy",
    "PullRateLimiter",
    "PullResult",
    "QuotaExceeded",
    "RateLimitExceeded",
    "RegionalRegistry",
    "Registry",
    "RegistryClient",
    "RegistryError",
    "ReplicationAction",
    "ReplicatorCycle",
    "Repository",
    "RepositoryIndex",
    "SourceKind",
    "build_image",
    "digest_bytes",
    "digest_text",
    "is_digest",
    "mirror_image",
    "short_digest",
    "split_sizes",
    "synthetic_blob",
]
