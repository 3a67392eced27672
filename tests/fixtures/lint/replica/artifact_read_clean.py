"""Lint fixture: RPR6xx-clean artifact reads (the sanctioned readers).

This file is never imported, only parsed.
"""

import json

import numpy as np


def read_archive(path):
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(bytes(archive["manifest"]).decode())
    return manifest


def read_replica_state(path):
    def _parse(text):
        return json.loads(text)  # nested inside the sanctioned reader

    with open(path) as fh:
        return _parse(fh.read())


def load_manifest(path):
    with open(path) as fh:
        return json.load(fh)


class Follower:
    def boot(self, path):
        return read_archive(path), load_manifest(path)
