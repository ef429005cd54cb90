"""Energy-aware UAV swarm data collection: channel model, mission world,
coverage MDP, learners with a meta-initialization loop, an exact
small-instance solver, and a seeded experiment harness.

``import swarmcover`` loads no submodule, so the command-line layer can
configure the numeric environment before anything heavy loads; import
each submodule by name (``from swarmcover import env``).
"""

__version__ = "0.1.0"
