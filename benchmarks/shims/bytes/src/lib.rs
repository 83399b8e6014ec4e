//! `acme-distsys` declares `bytes` and imports nothing from it.
