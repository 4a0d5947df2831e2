//! Bank implementations: J-NVM (failure-atomic transfers), FS
//! (file-per-account with marshalling) and Volatile.

use std::sync::Arc;

use parking_lot::Mutex;

use jnvm::{Jnvm, JnvmBuilder, JnvmError, PObject, Proxy};
use jnvm_jpdt::PRefArray;
use jnvm_kvstore::{CostModel, SimFs};
use jnvm_pmem::Pmem;

/// Account record size from the paper (§5.3.3: "10M accounts of 140 B
/// each").
pub const ACCOUNT_BYTES: u64 = 140;

/// A persistent bank account: `[balance i64][padding to 140 B]`.
pub struct Account {
    proxy: Proxy,
}

impl Account {
    /// Allocate with an initial balance (flushed, not yet validated).
    pub fn create(rt: &Jnvm, balance: i64) -> Result<Account, JnvmError> {
        let proxy = rt.alloc_proxy::<Account>(ACCOUNT_BYTES)?;
        proxy.write_i64(0, balance);
        proxy.pwb();
        Ok(Account { proxy })
    }

    /// Current balance.
    pub fn balance(&self) -> i64 {
        self.proxy.read_i64(0)
    }

    /// Overwrite the balance (mediated: inside a failure-atomic block the
    /// write is redo-logged).
    pub fn set_balance(&self, v: i64) {
        self.proxy.write_i64(0, v);
    }

    /// The proxy.
    pub fn proxy(&self) -> &Proxy {
        &self.proxy
    }
}

impl PObject for Account {
    const CLASS_NAME: &'static str = "jnvm_tpcb.Account";

    fn resurrect(rt: &Jnvm, addr: u64) -> Self {
        Account {
            proxy: Proxy::open(rt, addr),
        }
    }

    fn addr(&self) -> u64 {
        self.proxy.addr()
    }
}

/// Register the bank's persistent classes (plus everything they rely on).
pub fn register_tpcb(b: JnvmBuilder) -> JnvmBuilder {
    jnvm_jpdt::register_jpdt(b).register::<Account>()
}

/// The operations Figure 11's load injector needs.
pub trait Bank: Send + Sync {
    /// Move `amount` from account `a` to account `b`, atomically with
    /// respect to crashes (for the persistent designs).
    fn transfer(&self, a: u64, b: u64, amount: i64) -> bool;
    /// Balance of account `a`.
    fn balance(&self, a: u64) -> i64;
    /// Sum over all accounts (the crash-atomicity invariant).
    fn total(&self) -> i64;
    /// Number of accounts.
    fn len(&self) -> u64;
    /// Whether the bank holds no accounts.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

const STRIPES: usize = 256;

fn stripe_pair(locks: &[Mutex<()>], a: u64, b: u64) -> (usize, usize) {
    let (x, y) = ((a as usize) % locks.len(), (b as usize) % locks.len());
    (x.min(y), x.max(y))
}

/// The J-NVM bank: accounts in a persistent reference array, account
/// proxies cached eagerly (§5.3.3: restart "creates proxies instead of
/// reloading data in full"), transfers in failure-atomic blocks.
pub struct JnvmBank {
    rt: Jnvm,
    accounts: Vec<Account>,
    locks: Vec<Mutex<()>>,
}

impl JnvmBank {
    /// Create `n` accounts with `initial` balance each, rooted under
    /// "tpcb-accounts".
    pub fn create(rt: &Jnvm, n: u64, initial: i64) -> Result<JnvmBank, JnvmError> {
        let array = PRefArray::new(rt, n)?;
        let mut accounts = Vec::with_capacity(n as usize);
        for i in 0..n {
            let acc = Account::create(rt, initial)?;
            acc.proxy().validate();
            array.set_ref(i, Some(acc.addr()));
            accounts.push(acc);
        }
        array.pwb();
        rt.pmem().pfence();
        rt.root_put("tpcb-accounts", &array)?;
        Ok(JnvmBank {
            rt: rt.clone(),
            accounts,
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
        })
    }

    /// Re-open after a restart: resurrect the array and every account
    /// proxy (the proxy-cache rebuild the paper times).
    pub fn open(rt: &Jnvm) -> Result<JnvmBank, JnvmError> {
        let array = rt
            .root_get_as::<PRefArray>("tpcb-accounts")?
            .ok_or(JnvmError::StaleProxy)?;
        let n = array.len();
        let mut accounts = Vec::with_capacity(n as usize);
        for i in 0..n {
            let addr = array.get_ref(i).ok_or(JnvmError::StaleProxy)?;
            accounts.push(Account::resurrect(rt, addr));
        }
        Ok(JnvmBank {
            rt: rt.clone(),
            accounts,
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
        })
    }
}

impl Bank for JnvmBank {
    fn transfer(&self, a: u64, b: u64, amount: i64) -> bool {
        if a == b || a >= self.len() || b >= self.len() {
            return false;
        }
        let (lo, hi) = stripe_pair(&self.locks, a, b);
        let _g1 = self.locks[lo].lock();
        let _g2 = if lo != hi {
            Some(self.locks[hi].lock())
        } else {
            None
        };
        let (acc_a, acc_b) = (&self.accounts[a as usize], &self.accounts[b as usize]);
        self.rt.fa(|| {
            acc_a.set_balance(acc_a.balance() - amount);
            acc_b.set_balance(acc_b.balance() + amount);
        });
        true
    }

    fn balance(&self, a: u64) -> i64 {
        self.accounts[a as usize].balance()
    }

    fn total(&self) -> i64 {
        self.accounts.iter().map(|a| a.balance()).sum()
    }

    fn len(&self) -> u64 {
        self.accounts.len() as u64
    }
}

/// The FS bank: one marshalled 140-B file per account over [`SimFs`],
/// write-through.
pub struct FsBank {
    fs: SimFs,
    locks: Vec<Mutex<()>>,
    n: u64,
}

impl FsBank {
    fn encode(balance: i64) -> Vec<u8> {
        let mut rec = vec![0u8; ACCOUNT_BYTES as usize];
        rec[..8].copy_from_slice(&balance.to_le_bytes());
        rec
    }

    fn decode(bytes: &[u8]) -> i64 {
        i64::from_le_bytes(bytes[..8].try_into().expect("account record >= 8 bytes"))
    }

    /// Create `n` account files.
    pub fn create(pmem: Arc<Pmem>, n: u64, initial: i64, costs: CostModel) -> FsBank {
        let fs = SimFs::format(pmem, ACCOUNT_BYTES + 64, costs);
        for i in 0..n {
            fs.write_file(&format!("acct{i}"), &FsBank::encode(initial));
        }
        FsBank {
            fs,
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            n,
        }
    }

    /// Remount after a crash (pays the directory scan) and eagerly reload
    /// `preload` accounts, as Infinispan reloads its cache (§5.3.3).
    pub fn mount(pmem: Arc<Pmem>, n: u64, preload: u64, costs: CostModel) -> FsBank {
        let fs = SimFs::mount(pmem, ACCOUNT_BYTES + 64, costs);
        let bank = FsBank {
            fs,
            locks: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            n,
        };
        for i in 0..preload.min(n) {
            std::hint::black_box(bank.balance(i));
        }
        bank
    }
}

impl Bank for FsBank {
    fn transfer(&self, a: u64, b: u64, amount: i64) -> bool {
        if a == b || a >= self.n || b >= self.n {
            return false;
        }
        let (lo, hi) = stripe_pair(&self.locks, a, b);
        let _g1 = self.locks[lo].lock();
        let _g2 = if lo != hi {
            Some(self.locks[hi].lock())
        } else {
            None
        };
        let (ka, kb) = (format!("acct{a}"), format!("acct{b}"));
        let (Some(ba), Some(bb)) = (self.fs.read_file(&ka), self.fs.read_file(&kb)) else {
            return false;
        };
        self.fs
            .write_file(&ka, &FsBank::encode(FsBank::decode(&ba) - amount))
            && self
                .fs
                .write_file(&kb, &FsBank::encode(FsBank::decode(&bb) + amount))
    }

    fn balance(&self, a: u64) -> i64 {
        self.fs
            .read_file(&format!("acct{a}"))
            .map(|b| FsBank::decode(&b))
            .unwrap_or(0)
    }

    fn total(&self) -> i64 {
        (0..self.n).map(|i| self.balance(i)).sum()
    }

    fn len(&self) -> u64 {
        self.n
    }
}

/// Persistence disabled: balances in DRAM; a restart loses everything and
/// accounts restart from zero (exactly the paper's Volatile behaviour).
pub struct VolatileBank {
    balances: Vec<Mutex<i64>>,
}

impl VolatileBank {
    /// Create `n` accounts with `initial` balance.
    pub fn new(n: u64, initial: i64) -> VolatileBank {
        VolatileBank {
            balances: (0..n).map(|_| Mutex::new(initial)).collect(),
        }
    }
}

impl Bank for VolatileBank {
    fn transfer(&self, a: u64, b: u64, amount: i64) -> bool {
        if a == b || a as usize >= self.balances.len() || b as usize >= self.balances.len() {
            return false;
        }
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let mut first = self.balances[lo].lock();
        let mut second = self.balances[hi].lock();
        if a < b {
            *first -= amount;
            *second += amount;
        } else {
            *second -= amount;
            *first += amount;
        }
        true
    }

    fn balance(&self, a: u64) -> i64 {
        *self.balances[a as usize].lock()
    }

    fn total(&self) -> i64 {
        self.balances.iter().map(|b| *b.lock()).sum()
    }

    fn len(&self) -> u64 {
        self.balances.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jnvm_heap::HeapConfig;
    use jnvm_pmem::{CrashPolicy, PmemConfig};

    fn jnvm_rt(bytes: u64) -> (Arc<Pmem>, Jnvm) {
        let pmem = Pmem::new(PmemConfig::crash_sim(bytes));
        let rt = register_tpcb(JnvmBuilder::new())
            .create(Arc::clone(&pmem), HeapConfig::default())
            .unwrap();
        (pmem, rt)
    }

    #[test]
    fn jnvm_bank_transfers_conserve_total() {
        let (_p, rt) = jnvm_rt(16 << 20);
        let bank = JnvmBank::create(&rt, 100, 1000).unwrap();
        assert_eq!(bank.total(), 100_000);
        assert!(bank.transfer(1, 2, 300));
        assert_eq!(bank.balance(1), 700);
        assert_eq!(bank.balance(2), 1300);
        assert!(!bank.transfer(1, 1, 10), "self transfer rejected");
        assert!(!bank.transfer(1, 999, 10), "bad account rejected");
        assert_eq!(bank.total(), 100_000);
    }

    #[test]
    fn jnvm_bank_crash_preserves_atomicity_and_total() {
        let (pmem, rt) = jnvm_rt(32 << 20);
        let bank = JnvmBank::create(&rt, 50, 100).unwrap();
        for i in 0..200u64 {
            bank.transfer(i % 50, (i * 7 + 1) % 50, 3);
        }
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let (rt2, _) = register_tpcb(JnvmBuilder::new())
            .open(Arc::clone(&pmem))
            .unwrap();
        let bank2 = JnvmBank::open(&rt2).unwrap();
        assert_eq!(bank2.len(), 50);
        assert_eq!(bank2.total(), 5000, "no money created or destroyed");
    }

    #[test]
    fn jnvm_bank_concurrent_transfers() {
        let (_p, rt) = jnvm_rt(32 << 20);
        let bank = Arc::new(JnvmBank::create(&rt, 20, 1000).unwrap());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let bank = Arc::clone(&bank);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        bank.transfer((t * 13 + i) % 20, (t * 7 + i * 3 + 1) % 20, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(bank.total(), 20_000);
    }

    #[test]
    fn fs_bank_round_trip_and_remount() {
        let pmem = Pmem::new(PmemConfig::crash_sim(8 << 20));
        let bank = FsBank::create(Arc::clone(&pmem), 20, 500, CostModel::free());
        assert!(bank.transfer(0, 1, 100));
        assert_eq!(bank.balance(0), 400);
        assert_eq!(bank.balance(1), 600);
        pmem.crash(&CrashPolicy::strict()).unwrap();
        let bank2 = FsBank::mount(pmem, 20, 5, CostModel::free());
        assert_eq!(bank2.total(), 10_000);
        assert_eq!(bank2.balance(1), 600);
    }

    #[test]
    fn volatile_bank_behaviour() {
        let bank = VolatileBank::new(10, 50);
        assert!(bank.transfer(3, 4, 20));
        assert_eq!(bank.balance(3), 30);
        assert_eq!(bank.balance(4), 70);
        assert_eq!(bank.total(), 500);
        assert!(!bank.transfer(3, 3, 5));
    }
}
