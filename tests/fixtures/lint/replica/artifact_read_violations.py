"""Lint fixture: RPR6xx artifact-read violations.

This file is never imported, only parsed.
"""

import json

import numpy as np
from json import loads


def load_segment_fast(path):
    return np.load(path)  # expect: RPR601


def peek_manifest(path):
    with open(path) as fh:
        return json.load(fh)  # expect: RPR602


def read_state_shortcut(text):
    return loads(text)  # expect: RPR602


async def fetch_and_trust(path):
    blob = np.load(path, allow_pickle=False)  # expect: RPR601
    return blob


def _read_verified(path):
    # the pre-container reader names are no longer sanctioned
    with np.load(path, allow_pickle=False) as archive:  # expect: RPR601
        return json.loads(str(archive["manifest"]))  # expect: RPR602
