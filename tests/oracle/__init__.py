"""Reference models production code is differentially tested against."""
