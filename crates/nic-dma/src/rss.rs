//! Receive-Side Scaling: Toeplitz hashing and the indirection table.
//!
//! RSS is the paper's §3 example of demultiplexing offload designed to
//! avoid involving the OS: the NIC hashes the 5-tuple and spreads flows
//! over queues *statically*, with no knowledge of where the consuming
//! process actually runs — precisely the information gap Lauberhorn
//! closes.

use std::net::Ipv4Addr;

/// The de-facto standard 40-byte Toeplitz key (Microsoft's verification
/// suite key), used so hash values match published test vectors.
pub const MS_TOEPLITZ_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Computes the Toeplitz hash of `input` under `key`.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    let mut result: u32 = 0;
    // The sliding 32-bit window over the key, starting at its first 32
    // bits.
    let mut window: u32 = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_key_bit = 32usize;
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= window;
            }
            // Slide the window one bit left, pulling in the next key bit.
            let incoming = if next_key_bit < 320 {
                key[next_key_bit / 8] >> (7 - next_key_bit % 8) & 1
            } else {
                0
            };
            window = window << 1 | incoming as u32;
            next_key_bit += 1;
        }
    }
    result
}

/// Serialises an IPv4/UDP 5-tuple into the RSS input layout
/// (src ip, dst ip, src port, dst port).
pub fn rss_input(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[0..4].copy_from_slice(&src.octets());
    out[4..8].copy_from_slice(&dst.octets());
    out[8..10].copy_from_slice(&src_port.to_be_bytes());
    out[10..12].copy_from_slice(&dst_port.to_be_bytes());
    out
}

/// RSS configuration: key plus indirection table.
#[derive(Debug, Clone)]
pub struct RssTable {
    key: [u8; 40],
    /// Maps `hash % len` to a queue index.
    indirection: Vec<u32>,
}

impl RssTable {
    /// Creates a table spreading flows round-robin over `queues` queues
    /// with a 128-entry indirection table.
    pub fn new(queues: u32) -> Self {
        assert!(queues > 0);
        RssTable {
            key: MS_TOEPLITZ_KEY,
            indirection: (0..128).map(|i| i % queues).collect(),
        }
    }

    /// Selects the queue for a flow.
    pub fn queue_for(&self, src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16) -> u32 {
        let h = toeplitz_hash(&self.key, &rss_input(src, dst, src_port, dst_port));
        self.indirection[h as usize % self.indirection.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test vectors from the Microsoft RSS verification suite
    /// (IPv4 with TCP/UDP-style port words).
    #[test]
    fn microsoft_test_vectors() {
        // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
        let h = toeplitz_hash(
            &MS_TOEPLITZ_KEY,
            &rss_input(
                Ipv4Addr::new(66, 9, 149, 187),
                Ipv4Addr::new(161, 142, 100, 80),
                2794,
                1766,
            ),
        );
        assert_eq!(h, 0x51cc_c178);
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let h = toeplitz_hash(
            &MS_TOEPLITZ_KEY,
            &rss_input(
                Ipv4Addr::new(199, 92, 111, 2),
                Ipv4Addr::new(65, 69, 140, 83),
                14230,
                4739,
            ),
        );
        assert_eq!(h, 0xc626_b0ea);
    }

    #[test]
    fn ip_only_test_vector() {
        // 66.9.149.187 -> 161.142.100.80 (2-tuple) => 0x323e8fc2
        let mut input = [0u8; 8];
        input[0..4].copy_from_slice(&Ipv4Addr::new(66, 9, 149, 187).octets());
        input[4..8].copy_from_slice(&Ipv4Addr::new(161, 142, 100, 80).octets());
        assert_eq!(toeplitz_hash(&MS_TOEPLITZ_KEY, &input), 0x323e_8fc2);
    }

    #[test]
    fn same_flow_same_queue() {
        let t = RssTable::new(8);
        let q1 = t.queue_for(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 5, 6);
        let q2 = t.queue_for(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 5, 6);
        assert_eq!(q1, q2);
    }

    #[test]
    fn flows_spread_over_queues() {
        let t = RssTable::new(8);
        let mut seen = std::collections::HashSet::new();
        for port in 0..256u16 {
            seen.insert(t.queue_for(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                port,
                80,
            ));
        }
        // 256 flows must hit most of 8 queues.
        assert!(seen.len() >= 6, "only {} queues used", seen.len());
    }
}
