"""Pre-retrieval prediction of group exposure distributions in rankings."""
