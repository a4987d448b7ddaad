//! Built-in operators: stateless transforms (map / filter /
//! pass-through / spin), keyed windowed aggregation, windowed stream
//! join, and gap-based session windows.

mod aggregate;
mod join;
mod session;
mod transform;

pub use aggregate::{Aggregation, WindowAggregate};
pub use join::WindowJoin;
pub use session::SessionWindow;
pub use transform::{FilterOp, MapOp, Passthrough, SpinMap};
