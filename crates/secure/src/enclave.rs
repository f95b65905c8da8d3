//! Enclave lifecycle, measurement and local attestation.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::error::SecureError;
use crate::seal::{seal, unseal, SealedBlob};

/// Identifier of an enclave on one platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EnclaveId(pub u64);

impl std::fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// A local attestation quote: binds an enclave measurement to a
/// verifier-chosen nonce under the platform key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// The attested enclave's measurement.
    pub measurement: u64,
    /// The verifier's nonce.
    pub nonce: u64,
    /// Signature-equivalent binding (keyed hash under the platform key).
    pub binding: u64,
}

#[derive(Debug, Clone)]
struct EnclaveState {
    measurement: u64,
    sealing_key: u64,
}

/// A platform (one machine's TEE support): creates enclaves, seals data,
/// issues and verifies quotes.
///
/// `hardware_crypto` marks SGX/TrustZone-class instruction support; it
/// changes none of the security semantics, only the cost model in
/// [`crate::task`].
#[derive(Debug, Clone)]
pub struct Platform {
    platform_key: u64,
    /// Whether crypto is hardware-accelerated (AES-NI/SGX class).
    pub hardware_crypto: bool,
    enclaves: HashMap<u64, EnclaveState>,
    next_id: u64,
}

impl Platform {
    /// A platform with a device-unique key.
    #[must_use]
    pub fn new(platform_key: u64, hardware_crypto: bool) -> Self {
        Platform {
            platform_key,
            hardware_crypto,
            enclaves: HashMap::new(),
            next_id: 0,
        }
    }

    /// Create an enclave from its code image; the measurement is a hash
    /// of the image, and the sealing key is derived from platform key and
    /// measurement (so the same code on the same platform can unseal its
    /// own data, as in SGX's `MRENCLAVE` sealing policy).
    ///
    /// # Errors
    ///
    /// [`SecureError::Platform`] when the 64-enclave limit is reached.
    pub fn create_enclave(&mut self, code: &[u8]) -> Result<EnclaveId, SecureError> {
        if self.enclaves.len() >= 64 {
            return Err(SecureError::Platform("enclave limit (64) reached".into()));
        }
        let measurement = measure(code);
        let id = self.next_id;
        self.next_id += 1;
        self.enclaves.insert(
            id,
            EnclaveState {
                measurement,
                sealing_key: derive_key(self.platform_key, measurement),
            },
        );
        Ok(EnclaveId(id))
    }

    /// Destroy an enclave. Its sealing key goes with it, and a
    /// [`QuoteCache`] verdict about it must be
    /// [`invalidated`](QuoteCache::invalidate): a new instance of the
    /// same code is a new enclave and attests afresh.
    ///
    /// ```
    /// use legato_secure::{Platform, QuoteCache};
    ///
    /// let mut platform = Platform::new(7, true);
    /// let enclave = platform.create_enclave(b"kernel").unwrap();
    /// let m = platform.measurement(enclave).unwrap();
    /// let mut cache = QuoteCache::new();
    /// assert_eq!(cache.attest_once(0, &platform, enclave, m), Ok(true));
    ///
    /// platform.destroy_enclave(enclave).unwrap();
    /// assert!(platform.seal(enclave, b"secret").is_err());
    /// assert!(cache.invalidate(0, m));
    ///
    /// let successor = platform.create_enclave(b"kernel").unwrap();
    /// assert_eq!(cache.attest_once(0, &platform, successor, m), Ok(true));
    /// ```
    ///
    /// # Errors
    ///
    /// [`SecureError::UnknownEnclave`] if it does not exist.
    pub fn destroy_enclave(&mut self, id: EnclaveId) -> Result<(), SecureError> {
        self.enclaves
            .remove(&id.0)
            .map(|_| ())
            .ok_or(SecureError::UnknownEnclave(id.0))
    }

    /// The measurement (code hash) of an enclave.
    ///
    /// # Errors
    ///
    /// [`SecureError::UnknownEnclave`] if it does not exist.
    pub fn measurement(&self, id: EnclaveId) -> Result<u64, SecureError> {
        self.state(id).map(|s| s.measurement)
    }

    /// Seal data under an enclave's sealing key.
    ///
    /// # Errors
    ///
    /// [`SecureError::UnknownEnclave`] if it does not exist.
    pub fn seal(&self, id: EnclaveId, data: &[u8]) -> Result<SealedBlob, SecureError> {
        Ok(seal(self.state(id)?.sealing_key, data))
    }

    /// Unseal data previously sealed by the *same enclave code* on the
    /// *same platform*.
    ///
    /// # Errors
    ///
    /// [`SecureError::UnknownEnclave`] for a missing enclave;
    /// [`SecureError::IntegrityViolation`] on tamper or key mismatch.
    pub fn unseal(&self, id: EnclaveId, blob: &SealedBlob) -> Result<Vec<u8>, SecureError> {
        unseal(self.state(id)?.sealing_key, blob)
    }

    /// Produce a local attestation quote for `id` over a verifier nonce.
    ///
    /// # Errors
    ///
    /// [`SecureError::UnknownEnclave`] if it does not exist.
    pub fn attest(&self, id: EnclaveId, nonce: u64) -> Result<Quote, SecureError> {
        let m = self.state(id)?.measurement;
        Ok(Quote {
            measurement: m,
            nonce,
            binding: bind(self.platform_key, m, nonce),
        })
    }

    /// Verify a quote allegedly produced by *this* platform against the
    /// expected measurement and the nonce the verifier chose.
    ///
    /// # Errors
    ///
    /// [`SecureError::BadQuote`] when the binding, measurement or nonce
    /// disagree.
    pub fn verify_quote(
        &self,
        quote: &Quote,
        expected_measurement: u64,
        nonce: u64,
    ) -> Result<(), SecureError> {
        if quote.measurement != expected_measurement
            || quote.nonce != nonce
            || quote.binding != bind(self.platform_key, quote.measurement, nonce)
        {
            return Err(SecureError::BadQuote);
        }
        Ok(())
    }

    fn state(&self, id: EnclaveId) -> Result<&EnclaveState, SecureError> {
        self.enclaves
            .get(&id.0)
            .ok_or(SecureError::UnknownEnclave(id.0))
    }
}

/// Verifier-side attestation cache: remembers which `(platform,
/// measurement)` pairs have already produced a verified quote, so the
/// runtime charges the attestation round only on the *first* placement of
/// each enclave code image on each device.
///
/// Nonces are drawn from a monotonic counter — every attestation round
/// uses a fresh nonce, so a replayed (stale-nonce) quote can never
/// verify, and a failed verification caches nothing (the next attempt
/// re-attests from scratch).
///
/// Cache entries must be [`invalidated`](QuoteCache::invalidate) when the
/// attested enclave is torn down: a cached verdict about a destroyed
/// enclave says nothing about a successor instance, even one with the
/// same measurement.
#[derive(Debug, Clone, Default)]
pub struct QuoteCache {
    verified: HashSet<(u64, u64)>,
    next_nonce: u64,
    issued: u64,
}

impl QuoteCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        QuoteCache::default()
    }

    /// Whether `(platform_tag, measurement)` already holds a verified
    /// quote.
    #[must_use]
    pub fn is_verified(&self, platform_tag: u64, measurement: u64) -> bool {
        self.verified.contains(&(platform_tag, measurement))
    }

    /// Attest `enclave` on `platform` under a fresh nonce unless
    /// `(platform_tag, measurement)` is already verified.
    ///
    /// Returns `Ok(true)` when an attestation round was performed (cache
    /// miss) and `Ok(false)` on a cache hit. On any failure nothing is
    /// cached.
    ///
    /// # Errors
    ///
    /// [`SecureError::UnknownEnclave`] when the enclave does not exist
    /// (e.g. it was torn down); [`SecureError::BadQuote`] when the quote
    /// does not verify against `expected_measurement` — a wrong or forged
    /// code image.
    pub fn attest_once(
        &mut self,
        platform_tag: u64,
        platform: &Platform,
        enclave: EnclaveId,
        expected_measurement: u64,
    ) -> Result<bool, SecureError> {
        if self.is_verified(platform_tag, expected_measurement) {
            return Ok(false);
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let quote = platform.attest(enclave, nonce)?;
        platform.verify_quote(&quote, expected_measurement, nonce)?;
        self.issued += 1;
        self.verified.insert((platform_tag, expected_measurement));
        Ok(true)
    }

    /// Drop the cached verdict for `(platform_tag, measurement)` —
    /// required when the attested enclave is destroyed (see
    /// [`Platform::destroy_enclave`] for the lifecycle). Returns whether
    /// an entry was present.
    ///
    /// ```
    /// use legato_secure::{Platform, QuoteCache};
    ///
    /// let mut platform = Platform::new(7, true);
    /// let enclave = platform.create_enclave(b"kernel").unwrap();
    /// let m = platform.measurement(enclave).unwrap();
    /// let mut cache = QuoteCache::new();
    /// cache.attest_once(0, &platform, enclave, m).unwrap();
    /// assert!(cache.invalidate(0, m));
    /// assert!(!cache.is_verified(0, m));
    /// assert!(!cache.invalidate(0, m), "nothing left to drop");
    /// ```
    pub fn invalidate(&mut self, platform_tag: u64, measurement: u64) -> bool {
        self.verified.remove(&(platform_tag, measurement))
    }
}

/// Measure a code image (FNV-1a + finalization).
#[must_use]
pub fn measure(code: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in code {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    mix(hash)
}

fn derive_key(platform_key: u64, measurement: u64) -> u64 {
    mix(platform_key ^ measurement.rotate_left(17))
}

fn bind(platform_key: u64, measurement: u64, nonce: u64) -> u64 {
    mix(platform_key ^ measurement ^ nonce.rotate_left(31))
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_code_same_measurement() {
        let mut p = Platform::new(1, false);
        let a = p.create_enclave(b"module").unwrap();
        let b = p.create_enclave(b"module").unwrap();
        assert_eq!(p.measurement(a).unwrap(), p.measurement(b).unwrap());
        let c = p.create_enclave(b"other").unwrap();
        assert_ne!(p.measurement(a).unwrap(), p.measurement(c).unwrap());
    }

    #[test]
    fn seal_unseal_same_enclave_code() {
        let mut p = Platform::new(7, true);
        let a = p.create_enclave(b"module").unwrap();
        let blob = p.seal(a, b"weights").unwrap();
        // A second instance of the same code can unseal (MRENCLAVE policy).
        let b = p.create_enclave(b"module").unwrap();
        assert_eq!(p.unseal(b, &blob).unwrap(), b"weights");
    }

    #[test]
    fn different_code_cannot_unseal() {
        let mut p = Platform::new(7, true);
        let a = p.create_enclave(b"module").unwrap();
        let blob = p.seal(a, b"weights").unwrap();
        let evil = p.create_enclave(b"malware").unwrap();
        assert_eq!(p.unseal(evil, &blob), Err(SecureError::IntegrityViolation));
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let mut p1 = Platform::new(1, true);
        let mut p2 = Platform::new(2, true);
        let a = p1.create_enclave(b"module").unwrap();
        let blob = p1.seal(a, b"weights").unwrap();
        let b = p2.create_enclave(b"module").unwrap();
        assert_eq!(p2.unseal(b, &blob), Err(SecureError::IntegrityViolation));
    }

    #[test]
    fn attestation_round_trip() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let m = p.measurement(e).unwrap();
        let quote = p.attest(e, 0xDEAD).unwrap();
        p.verify_quote(&quote, m, 0xDEAD).unwrap();
    }

    #[test]
    fn replayed_quote_rejected() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let m = p.measurement(e).unwrap();
        let quote = p.attest(e, 0xDEAD).unwrap();
        // Verifier uses a fresh nonce: the old quote must not verify.
        assert_eq!(
            p.verify_quote(&quote, m, 0xBEEF),
            Err(SecureError::BadQuote)
        );
    }

    #[test]
    fn forged_measurement_rejected() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let mut quote = p.attest(e, 1).unwrap();
        quote.measurement ^= 1;
        assert_eq!(
            p.verify_quote(&quote, quote.measurement, 1),
            Err(SecureError::BadQuote)
        );
    }

    #[test]
    fn destroy_then_use_errors() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"m").unwrap();
        p.destroy_enclave(e).unwrap();
        assert_eq!(p.seal(e, b"x"), Err(SecureError::UnknownEnclave(e.0)));
        assert!(p.enclaves.is_empty());
    }

    #[test]
    fn quote_cache_attests_once_per_platform_and_measurement() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let m = p.measurement(e).unwrap();
        let mut cache = QuoteCache::new();
        assert!(!cache.is_verified(0, m));
        assert_eq!(cache.attest_once(0, &p, e, m), Ok(true));
        assert_eq!(cache.attest_once(0, &p, e, m), Ok(false), "cache hit");
        assert!(cache.is_verified(0, m));
        // A different platform tag (another device) is a separate pair.
        assert_eq!(cache.attest_once(1, &p, e, m), Ok(true));
        assert_eq!(cache.verified.len(), 2);
        assert_eq!(cache.issued, 2);
    }

    #[test]
    fn stale_nonce_quote_never_verifies_again() {
        // The cache consumes a fresh nonce per round; a quote captured
        // from an earlier round (stale nonce) must not verify against any
        // later nonce the cache would issue.
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let m = p.measurement(e).unwrap();
        let mut cache = QuoteCache::new();
        cache.attest_once(0, &p, e, m).unwrap(); // consumed nonce 0
        let stale = p.attest(e, 0).unwrap(); // attacker replays nonce 0
        for later_nonce in 1..5 {
            assert_eq!(
                p.verify_quote(&stale, m, later_nonce),
                Err(SecureError::BadQuote),
                "stale quote must fail nonce {later_nonce}"
            );
        }
        // And each cache round really consumes a distinct nonce.
        let e2 = p.create_enclave(b"other").unwrap();
        let m2 = p.measurement(e2).unwrap();
        cache.attest_once(0, &p, e2, m2).unwrap();
        assert_eq!(cache.issued, 2);
    }

    #[test]
    fn wrong_measurement_fails_and_caches_nothing() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let m = p.measurement(e).unwrap();
        let wrong = m ^ 0xFF;
        let mut cache = QuoteCache::new();
        assert_eq!(
            cache.attest_once(0, &p, e, wrong),
            Err(SecureError::BadQuote)
        );
        assert!(cache.verified.is_empty(), "failure must cache nothing");
        assert!(!cache.is_verified(0, wrong));
        // The correct measurement still attests cleanly afterwards.
        assert_eq!(cache.attest_once(0, &p, e, m), Ok(true));
    }

    #[test]
    fn teardown_invalidates_quote_cache_entry() {
        let mut p = Platform::new(5, false);
        let e = p.create_enclave(b"module").unwrap();
        let m = p.measurement(e).unwrap();
        let mut cache = QuoteCache::new();
        cache.attest_once(0, &p, e, m).unwrap();
        p.destroy_enclave(e).unwrap();
        // A cached verdict about a destroyed enclave must be dropped; a
        // stale cache would silently skip re-attestation of a successor.
        assert!(cache.invalidate(0, m));
        assert!(!cache.is_verified(0, m));
        // Attesting the dead enclave is an error, not a cache hit.
        assert_eq!(
            cache.attest_once(0, &p, e, m),
            Err(SecureError::UnknownEnclave(e.0))
        );
        // A recreated instance of the same code re-attests from scratch.
        let e2 = p.create_enclave(b"module").unwrap();
        assert_eq!(cache.attest_once(0, &p, e2, m), Ok(true));
        assert_eq!(cache.issued, 2);
    }

    #[test]
    fn enclave_limit_enforced() {
        let mut p = Platform::new(5, false);
        for i in 0..64 {
            p.create_enclave(format!("m{i}").as_bytes()).unwrap();
        }
        assert!(matches!(
            p.create_enclave(b"one too many"),
            Err(SecureError::Platform(_))
        ));
    }
}
