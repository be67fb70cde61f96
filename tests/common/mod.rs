//! Helpers shared by the serving suites.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// Sends `QUIT` to a server serving on a scoped thread when dropped.
///
/// A scope joins its server thread on exit, and the server returns only
/// after a `QUIT`.  A test body that panics or returns early (a failed
/// `prop_assert!`) before its own `QUIT` would leave that join waiting
/// forever; with this guard alive across the body, the test fails instead.
/// Best effort: it sends one `QUIT` and does not wait for `BYE`.  A server
/// that has already returned is left alone, so the `QUIT` cannot reach
/// another server that has since bound the same port.
pub struct QuitOnDrop<'a, 'scope, T> {
    pub addr: SocketAddr,
    pub server: &'a ScopedJoinHandle<'scope, T>,
}

impl<T> Drop for QuitOnDrop<'_, '_, T> {
    fn drop(&mut self) {
        if self.server.is_finished() {
            return;
        }
        if let Ok(mut stream) = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5)) {
            let _ = stream.write_all(b"QUIT\n");
        }
    }
}
