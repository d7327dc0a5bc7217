"""The repository's end-to-end benchmark of the Figure-1 flow, the exact RS
and store-backed dispatch.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
