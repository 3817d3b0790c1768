"""Run with ``python -m pytest perfbench/tests`` from the repository root
(the tier-1 ``testpaths`` does not include this directory)."""

from perfbench import env

env.prepare()
