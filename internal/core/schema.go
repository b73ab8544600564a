package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dbver"
	"repro/internal/sqlmini"
)

// Table names. The paper places drivers in the database information
// schema ("we view drivers as being part of the database schema, and
// thus they belong to the database system tables").
const (
	DriversTable    = "information_schema.drivers"
	PermissionTable = "information_schema.driver_permission"
	LeasesTable     = "information_schema.leases"
)

// DDL statements reproducing the paper's Table 1 and Table 2 exactly,
// plus the leases table described in §4.1.1 ("Leases can be stored in a
// table that has the same format as the distribution table").
var schemaDDL = []string{
	// Paper Table 1: information schema driver table definition.
	`CREATE TABLE IF NOT EXISTS ` + DriversTable + ` (
		driver_id INTEGER NOT NULL PRIMARY KEY,
		api_name VARCHAR NOT NULL,
		api_version_major INTEGER,
		api_version_minor INTEGER,
		platform VARCHAR,
		driver_version_major INTEGER,
		driver_version_minor INTEGER,
		driver_version_micro INTEGER,
		binary_code BLOB NOT NULL,
		binary_format VARCHAR NOT NULL
	)`,
	// Paper Table 2: driver_permission table description.
	`CREATE TABLE IF NOT EXISTS ` + PermissionTable + ` (
		permission_id INTEGER NOT NULL PRIMARY KEY,
		user VARCHAR,
		client_ip VARCHAR,
		database VARCHAR,
		driver_id INTEGER NOT NULL REFERENCES ` + DriversTable + `(driver_id),
		driver_options VARCHAR,
		start_date TIMESTAMP,
		end_date TIMESTAMP,
		lease_time_in_ms BIGINT,
		renew_policy INTEGER,
		expiration_policy INTEGER,
		transfer_method INTEGER
	)`,
	// Lease log (§4.1.1).
	`CREATE TABLE IF NOT EXISTS ` + LeasesTable + ` (
		lease_id BIGINT NOT NULL PRIMARY KEY,
		driver_id INTEGER NOT NULL,
		database VARCHAR,
		user VARCHAR,
		client_id VARCHAR,
		granted_at TIMESTAMP NOT NULL,
		expires_at TIMESTAMP NOT NULL,
		released BOOLEAN NOT NULL,
		renewals INTEGER NOT NULL
	)`,
	// Secondary indexes for the lease-scale hot paths. lease_id and
	// driver_id/permission_id are PRIMARY KEYs, whose index drives
	// execution of renewals, releases, and blob point-fetches directly;
	// the driver_id index on the permission table makes
	// permission-by-driver lookups O(bucket) instead of O(table). The
	// lease log has ONE ordered index, (driver_id, expires_at), and it
	// serves every lease statement that is not a lease_id lookup. The
	// §5.4.2 license-mode is-this-driver-free probe consumes both its
	// columns in one seek, residual-free, over exactly one driver's
	// unexpired window. The time-window statements — the expiry sweep
	// (`expires_at <= $now`), its retention purge and the license usage
	// count (`expires_at > $now`) — skip-scan it: one window seek per
	// distinct driver_id, O(d·log n + k), which driver_id's NOT NULL
	// makes exact. So a grant files one ordered node and a renewal moves
	// one. Every index here is maintained by every grant and renewal, so
	// each must be read by a pinned plan (TestHotStatementsPlanIndexed):
	// a hash on leases(driver_id) and an ordered leases(expires_at) are
	// not declared because the composite serves all they would. A store
	// created with either keeps it, and the planner still reads the
	// expires_at one there (TestOldSchemaStoreSweeps).
	`CREATE INDEX IF NOT EXISTS driver_permission_driver_id_idx
		ON ` + PermissionTable + ` (driver_id)`,
	`CREATE INDEX IF NOT EXISTS leases_driver_expires_idx
		ON ` + LeasesTable + ` (driver_id, expires_at) USING ORDERED`,
}

// SchemaStatements returns a copy of the DDL statement list EnsureSchema
// applies. Static tooling (drivolint's sqlcheck) replays it into a
// scratch sqlmini database to plan hot statements at lint time; tests
// replay subsets of it to prove that removing an index declaration is a
// build-breaking event.
func SchemaStatements() []string {
	out := make([]string, len(schemaDDL))
	copy(out, schemaDDL)
	return out
}

// EnsureSchema creates the Drivolution tables if missing.
func EnsureSchema(st Store) error {
	for _, ddl := range schemaDDL {
		if _, err := st.Exec(ddl); err != nil {
			return fmt.Errorf("core: ensure schema: %w", err)
		}
	}
	return nil
}

// DriverRecord is one row of the drivers table.
type DriverRecord struct {
	DriverID   int64
	APIName    string
	APIMajor   int // -1 = NULL (all versions)
	APIMinor   int
	Platform   dbver.Platform // "" = NULL (all platforms)
	Version    dbver.Version  // negative parts = NULL
	BinaryCode []byte
	Format     string
}

// Permission is one row of driver_permission (paper Table 2). Empty
// string fields and zero times store as NULL, meaning "matches any".
type Permission struct {
	PermissionID     int64
	User             string
	ClientIP         string
	Database         string
	DriverID         int64
	DriverOptions    string // "k=v,k=v" rendered into connect props
	StartDate        time.Time
	EndDate          time.Time
	LeaseTime        time.Duration
	RenewPolicy      RenewPolicy
	ExpirationPolicy ExpirationPolicy
	TransferMethod   TransferMethod
}

// Lease is one row of the leases table.
type Lease struct {
	LeaseID   uint64
	DriverID  int64
	Database  string
	User      string
	ClientID  string
	GrantedAt time.Time
	ExpiresAt time.Time
	Released  bool
	Renewals  int
}

// nullableStr maps "" to SQL NULL.
func nullableStr(s string) any {
	if s == "" {
		return nil
	}
	return s
}

// nullableInt maps negative to SQL NULL.
func nullableInt(n int) any {
	if n < 0 {
		return nil
	}
	return int64(n)
}

// nullableTime maps the zero time to SQL NULL.
func nullableTime(t time.Time) any {
	if t.IsZero() {
		return nil
	}
	return t
}

// insertDriverSQL adds a driver row; driver_id is allocated by the
// caller (max+1 under the store's single-writer admin path).
const insertDriverSQL = `INSERT INTO ` + DriversTable + `
	(driver_id, api_name, api_version_major, api_version_minor, platform,
	 driver_version_major, driver_version_minor, driver_version_micro,
	 binary_code, binary_format)
	VALUES ($driver_id, $api_name, $api_major, $api_minor, $platform,
	 $drv_major, $drv_minor, $drv_micro, $binary_code, $binary_format)`

// execer is the one-statement shape the insert helpers take: a Store,
// a Tx, or the server's prepared-statement router.
type execer interface {
	Exec(sql string, args ...any) (*sqlmini.Result, error)
}

func insertDriver(st execer, rec DriverRecord) error {
	_, err := st.Exec(insertDriverSQL, sqlmini.Args{
		"driver_id":     rec.DriverID,
		"api_name":      rec.APIName,
		"api_major":     nullableInt(rec.APIMajor),
		"api_minor":     nullableInt(rec.APIMinor),
		"platform":      nullableStr(string(rec.Platform)),
		"drv_major":     nullableInt(rec.Version.Major),
		"drv_minor":     nullableInt(rec.Version.Minor),
		"drv_micro":     nullableInt(rec.Version.Micro),
		"binary_code":   rec.BinaryCode,
		"binary_format": rec.Format,
	})
	return err
}

const insertPermissionSQL = `INSERT INTO ` + PermissionTable + `
	(permission_id, user, client_ip, database, driver_id, driver_options,
	 start_date, end_date, lease_time_in_ms, renew_policy,
	 expiration_policy, transfer_method)
	VALUES ($permission_id, $user, $client_ip, $database, $driver_id,
	 $driver_options, $start_date, $end_date, $lease_ms, $renew, $expire,
	 $transfer)`

func insertPermission(st execer, p Permission) error {
	_, err := st.Exec(insertPermissionSQL, sqlmini.Args{
		"permission_id":  p.PermissionID,
		"user":           nullableStr(p.User),
		"client_ip":      nullableStr(p.ClientIP),
		"database":       nullableStr(p.Database),
		"driver_id":      p.DriverID,
		"driver_options": nullableStr(p.DriverOptions),
		"start_date":     nullableTime(p.StartDate),
		"end_date":       nullableTime(p.EndDate),
		"lease_ms":       p.LeaseTime.Milliseconds(),
		"renew":          int64(p.RenewPolicy),
		"expire":         int64(p.ExpirationPolicy),
		"transfer":       int64(p.TransferMethod),
	})
	return err
}

// ParseDriverOptions renders a driver_options string ("k=v,k2=v2") into
// a key/value map, the format stored in Table 2's driver_options column.
func ParseDriverOptions(s string) map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		out[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return out
}

func intOrNeg(v sqlmini.Value) int {
	if v.IsNull() {
		return -1
	}
	return int(v.Int())
}

// scanDriverRecordIdx scans one driver row with a caller-provided
// column index, so result-set loops build the index once, not per row.
func scanDriverRecordIdx(idx map[string]int, row []sqlmini.Value) (DriverRecord, error) {
	if len(row) < 10 {
		return DriverRecord{}, fmt.Errorf("core: driver row has %d columns", len(row))
	}
	get := func(name string) sqlmini.Value { return row[idx[name]] }
	rec := DriverRecord{
		DriverID: get("driver_id").Int(),
		APIName:  get("api_name").Str(),
		APIMajor: intOrNeg(get("api_version_major")),
		APIMinor: intOrNeg(get("api_version_minor")),
		Platform: dbver.Platform(get("platform").Str()),
		Version: dbver.Version{
			Major: intOrNeg(get("driver_version_major")),
			Minor: intOrNeg(get("driver_version_minor")),
			Micro: intOrNeg(get("driver_version_micro")),
		},
		BinaryCode: get("binary_code").Bytes(),
		Format:     get("binary_format").Str(),
	}
	return rec, nil
}

// scanPermissionRows scans a full driver_permission result set; shared
// by the admin listing and the catalog loader.
func scanPermissionRows(res *sqlmini.Result) []Permission {
	idx := colIndex(res.Cols)
	out := make([]Permission, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, Permission{
			PermissionID:     row[idx["permission_id"]].Int(),
			User:             row[idx["user"]].Str(),
			ClientIP:         row[idx["client_ip"]].Str(),
			Database:         row[idx["database"]].Str(),
			DriverID:         row[idx["driver_id"]].Int(),
			DriverOptions:    row[idx["driver_options"]].Str(),
			StartDate:        row[idx["start_date"]].Time(),
			EndDate:          row[idx["end_date"]].Time(),
			LeaseTime:        millis(row[idx["lease_time_in_ms"]].Int()),
			RenewPolicy:      RenewPolicy(row[idx["renew_policy"]].Int()),
			ExpirationPolicy: ExpirationPolicy(row[idx["expiration_policy"]].Int()),
			TransferMethod:   TransferMethod(row[idx["transfer_method"]].Int()),
		})
	}
	return out
}
