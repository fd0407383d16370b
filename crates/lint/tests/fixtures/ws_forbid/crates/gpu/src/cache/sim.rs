//! Control fixture: the oracle's own module names itself.

pub(crate) struct SetAssocCache;
