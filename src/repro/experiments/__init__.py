"""Experiment harnesses that regenerate the paper's tables and figures.

Each module runs directly (``python -m repro.experiments.figure3``) and
prints the same rows/series the paper reports.  This package imports none
of them: ``python -m`` would otherwise execute the module it runs twice.

All experiments run on a scaled-down datapath (``IsaConfig.small``):
absolute times differ from the paper (our backend is a pure-Python SAT
solver), but the qualitative shape — HPF-CEGIS beating iterative CEGIS,
SQED missing all single-instruction bugs while SEPE-SQED catches them, both
methods catching multiple-instruction bugs with comparable traces — is what
is reproduced.
"""
