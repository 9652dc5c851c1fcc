"""Two-qubit quantum control toolkit: Ising-plus-field distortion of an
entangled pair, its repreparation plans, and pure- and mixed-state
discrimination fidelities emitted as CSV surfaces.

Import each name from the module that defines it.  The package must import
nothing, so that ``cli`` sets ``OPENBLAS_NUM_THREADS`` before numpy starts.
"""
