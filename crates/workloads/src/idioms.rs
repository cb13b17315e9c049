//! Shared communication idioms used by the NAS and SpecMPI skeletons.

use bytes::BufMut;
use dampi_mpi::{Comm, Mpi, Request, Result, Tag, ANY_SOURCE};

/// Factor `np` into the most square `(rows, cols)` grid.
#[must_use]
pub fn grid_dims(np: usize) -> (usize, usize) {
    let mut best = (1, np);
    let mut r = 1;
    while r * r <= np {
        if np.is_multiple_of(r) {
            best = (r, np / r);
        }
        r += 1;
    }
    best
}

/// Payload of `bytes` length (rounded up to whole u64 words): the words
/// `seed, seed + 1, …` little-endian, written straight into one buffer.
#[must_use]
pub fn payload(bytes: usize, seed: usize) -> bytes::Bytes {
    let words = bytes.div_ceil(8).max(1);
    let mut b = Vec::with_capacity(words * 8);
    for i in 0..words {
        b.put_u64_le((seed + i) as u64);
    }
    bytes::Bytes::from(b)
}

/// Periodic ring shift: send to `(me+1) % n`, receive from `(me-1+n) % n`.
pub async fn ring_shift(mpi: &mut dyn Mpi, comm: Comm, tag: Tag, bytes: usize) -> Result<()> {
    let n = mpi.comm_size(comm)?;
    if n < 2 {
        return Ok(());
    }
    let me = mpi.comm_rank(comm)?;
    let next = ((me + 1) % n) as i32;
    let prev = ((me + n - 1) % n) as i32;
    mpi.sendrecv(comm, next, tag, payload(bytes, me), prev, tag)
        .await?;
    Ok(())
}

/// Non-periodic 1-D halo: exchange with both neighbors where they exist.
pub async fn halo_1d(mpi: &mut dyn Mpi, comm: Comm, tag: Tag, bytes: usize) -> Result<()> {
    let n = mpi.comm_size(comm)?;
    let me = mpi.comm_rank(comm)?;
    let mut reqs: Vec<Request> = Vec::with_capacity(4);
    if me > 0 {
        reqs.push(mpi.irecv(comm, (me - 1) as i32, tag)?);
        reqs.push(mpi.isend(comm, (me - 1) as i32, tag, payload(bytes, me))?);
    }
    if me + 1 < n {
        reqs.push(mpi.irecv(comm, (me + 1) as i32, tag)?);
        reqs.push(mpi.isend(comm, (me + 1) as i32, tag, payload(bytes, me))?);
    }
    mpi.waitall(&reqs).await?;
    Ok(())
}

/// Hypercube butterfly: one sendrecv per dimension (`log2(n)` rounds).
pub async fn butterfly(mpi: &mut dyn Mpi, comm: Comm, tag: Tag, bytes: usize) -> Result<()> {
    let n = mpi.comm_size(comm)?;
    let me = mpi.comm_rank(comm)?;
    let mut bit = 1usize;
    while bit < n {
        let peer = me ^ bit;
        if peer < n {
            mpi.sendrecv(comm, peer as i32, tag, payload(bytes, me), peer as i32, tag)
                .await?;
        }
        bit <<= 1;
    }
    Ok(())
}

/// Full transpose: alltoall of `bytes` to every peer.
pub async fn transpose(mpi: &mut dyn Mpi, comm: Comm, bytes: usize) -> Result<()> {
    let n = mpi.comm_size(comm)?;
    let me = mpi.comm_rank(comm)?;
    let out: Vec<bytes::Bytes> = (0..n).map(|j| payload(bytes, me * n + j)).collect();
    let _ = mpi.alltoall(comm, out).await?;
    Ok(())
}

/// 2-D halo on a `rows × cols` grid embedded in `comm` (row-major ranks).
pub async fn halo_2d(mpi: &mut dyn Mpi, comm: Comm, tag: Tag, bytes: usize) -> Result<()> {
    let n = mpi.comm_size(comm)?;
    let me = mpi.comm_rank(comm)?;
    let (rows, cols) = grid_dims(n);
    let (r, c) = (me / cols, me % cols);
    let mut reqs: Vec<Request> = Vec::with_capacity(8);
    let mut neighbors = Vec::new();
    if r > 0 {
        neighbors.push((r - 1) * cols + c);
    }
    if r + 1 < rows {
        neighbors.push((r + 1) * cols + c);
    }
    if c > 0 {
        neighbors.push(r * cols + c - 1);
    }
    if c + 1 < cols {
        neighbors.push(r * cols + c + 1);
    }
    for &nb in &neighbors {
        reqs.push(mpi.irecv(comm, nb as i32, tag)?);
    }
    for &nb in &neighbors {
        reqs.push(mpi.isend(comm, nb as i32, tag, payload(bytes, me))?);
    }
    mpi.waitall(&reqs).await?;
    Ok(())
}

/// 2-D halo whose receives use `MPI_ANY_SOURCE`: the wildcard-gather idiom
/// of codes like 104.milc, where halo contributions are consumed in
/// arrival order. Each wildcard receive is a DAMPI epoch.
pub async fn halo_2d_wildcard(
    mpi: &mut dyn Mpi,
    comm: Comm,
    tag: Tag,
    bytes: usize,
) -> Result<usize> {
    let n = mpi.comm_size(comm)?;
    let me = mpi.comm_rank(comm)?;
    let (rows, cols) = grid_dims(n);
    let (r, c) = (me / cols, me % cols);
    let mut neighbors = Vec::new();
    if r > 0 {
        neighbors.push((r - 1) * cols + c);
    }
    if r + 1 < rows {
        neighbors.push((r + 1) * cols + c);
    }
    if c > 0 {
        neighbors.push(r * cols + c - 1);
    }
    if c + 1 < cols {
        neighbors.push(r * cols + c + 1);
    }
    let mut send_reqs: Vec<Request> = Vec::with_capacity(neighbors.len());
    for &nb in &neighbors {
        send_reqs.push(mpi.isend(comm, nb as i32, tag, payload(bytes, me))?);
    }
    for _ in &neighbors {
        let _ = mpi.recv(comm, ANY_SOURCE, tag).await?;
    }
    mpi.waitall(&send_reqs).await?;
    Ok(neighbors.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dampi_mpi::{run_native, AsyncFnProgram, SimConfig};

    #[test]
    fn grid_dims_most_square() {
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(7), (1, 7));
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn payload_is_the_encoded_words() {
        use dampi_mpi::envelope::codec;
        for (bytes, seed) in [(0usize, 0usize), (1, 3), (8, 5), (9, 7), (4096, 11)] {
            let words = bytes.div_ceil(8).max(1);
            let want =
                codec::encode_u64s(&(0..words).map(|i| (seed + i) as u64).collect::<Vec<_>>());
            assert_eq!(payload(bytes, seed), want, "{bytes} bytes from {seed}");
        }
    }

    #[test]
    fn payload_rounds_up() {
        assert_eq!(payload(1, 0).len(), 8);
        assert_eq!(payload(9, 0).len(), 16);
    }

    fn run_idiom(n: usize, f: impl AsyncFn(&mut dyn Mpi) -> Result<()> + Send + Sync + 'static) {
        let out = run_native(&SimConfig::new(n), &AsyncFnProgram(f));
        assert!(out.succeeded(), "{:?}", out.rank_errors);
        assert!(out.leaks.is_clean(), "{:?}", out.leaks);
    }

    #[test]
    fn ring_completes() {
        run_idiom(5, async |mpi| ring_shift(mpi, Comm::WORLD, 1, 64).await);
    }

    #[test]
    fn halo_1d_completes() {
        run_idiom(6, async |mpi| halo_1d(mpi, Comm::WORLD, 1, 64).await);
    }

    #[test]
    fn butterfly_completes_power_of_two_and_ragged() {
        run_idiom(8, async |mpi| butterfly(mpi, Comm::WORLD, 1, 32).await);
        run_idiom(6, async |mpi| butterfly(mpi, Comm::WORLD, 1, 32).await);
    }

    #[test]
    fn transpose_completes() {
        run_idiom(4, async |mpi| transpose(mpi, Comm::WORLD, 16).await);
    }

    #[test]
    fn halo_2d_completes() {
        run_idiom(12, async |mpi| halo_2d(mpi, Comm::WORLD, 2, 64).await);
    }

    #[test]
    fn halo_2d_wildcard_completes_and_counts() {
        run_idiom(9, async |mpi| {
            let nd = halo_2d_wildcard(mpi, Comm::WORLD, 2, 64).await?;
            assert!(nd >= 2, "3x3 grid has 2-4 neighbors");
            Ok(())
        });
    }

    #[test]
    fn singleton_world_is_noop() {
        run_idiom(1, async |mpi| {
            ring_shift(mpi, Comm::WORLD, 1, 8).await?;
            halo_1d(mpi, Comm::WORLD, 1, 8).await?;
            butterfly(mpi, Comm::WORLD, 1, 8).await?;
            halo_2d(mpi, Comm::WORLD, 1, 8).await
        });
    }
}
