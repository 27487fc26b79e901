"""Manifest columns of records, for tests that write their rows as ``ImageRecord``s."""

import io

from geoloc.ingest import parse_manifest_columns, serialize_manifest


def columns_of(records):
    """``records`` written as a manifest and parsed back into ``ManifestColumns`` (the round trip is exact)."""
    text = io.StringIO()
    serialize_manifest(records, text)
    text.seek(0)
    return parse_manifest_columns(text)
