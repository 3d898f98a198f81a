"""In-process benchmark of the hkt4 verifiers; run ``python3 bench/run.py``."""
