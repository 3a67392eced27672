"""Lint fixture: RPR401 covers the TCP front end (``net/``) too.

This file is never imported, only parsed.
"""

import time


async def on_connection(reader, writer):
    time.sleep(0.01)  # expect: RPR401
    writer.close()
