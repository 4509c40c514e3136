"""Index layout names shared by the builder and the server.

A leaf module (standard library only), so a serving replica that opens an
index imports neither the builder (``pipelines/build.py``) nor the SPIMI
stage (``stages/spimi.py``) to read its meta or to split its terms.
"""

from __future__ import annotations

import json
import os

# separator of the composite ``doc_key`` ``repo \x1f path \x1f commit``
# (its lexicographic order equals the component-wise order)
KEY_SEP = "\x1f"
# keyword-field terms are namespaced "<field>\x1e<value>" in the shared
# term space (every string field is an exact ES keyword)
FIELD_SEP = "\x1e"


def load_meta(index_dir: str) -> dict:
    """The index's ``stats/meta.json``."""
    with open(os.path.join(index_dir, "stats", "meta.json")) as f:
        return json.load(f)
