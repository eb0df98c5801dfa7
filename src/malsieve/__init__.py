"""malsieve: selective-ensemble Android malware detection.

Static APK features (permissions, intent actions, API references) feed a
pool of bootstrap-trained classifiers; a genetic algorithm picks the
sub-ensemble whose majority vote balances accuracy against prediction
diversity, which keeps the detector stable when training labels are
noisy.

The package re-exports nothing: its submodules (`malsieve.archive`,
`malsieve.vectorize`, `malsieve.ensemble`, `malsieve.experiment`, ...)
are the Python API, and `malsieve.cli` is the command line.
"""
