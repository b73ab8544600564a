package core

import (
	"fmt"
	"time"

	"repro/internal/dbver"
	"repro/internal/driverimg"
	"repro/internal/sqlmini"
)

// The admin API is what the paper's single-step upgrade uses: "The
// upgrade process drops from ten steps per client application to one
// simple insert operation on the Drivolution Server" (§3.2). Every
// mutation pushes a NotifyUpdate to dedicated-channel subscribers.

// AddDriver encodes, signs (when a signing key is configured), and
// inserts a driver image, returning its driver_id.
func (s *Server) AddDriver(img *driverimg.Image, format dbver.BinaryFormat) (int64, error) {
	if s.signKey != nil {
		img.Sign(s.signKey)
	}
	m := img.Manifest
	for attempt := 0; attempt < 16; attempt++ {
		s.idMu.Lock()
		if err := s.loadIDsLocked(); err != nil {
			s.idMu.Unlock()
			return 0, err
		}
		s.nextDrvID = int64(nextStridedID(uint64(s.nextDrvID), s.idOffset, s.idStride))
		id := s.nextDrvID
		s.idMu.Unlock()

		rec := DriverRecord{
			DriverID:   id,
			APIName:    m.API.Name,
			APIMajor:   m.API.Major,
			APIMinor:   m.API.Minor,
			Platform:   m.Platform,
			Version:    m.Version,
			BinaryCode: img.Encode(),
			Format:     string(format),
		}
		err := insertDriver(s.router(), rec)
		if err == nil {
			s.NotifyUpdate("", m.API.Name)
			return id, nil
		}
		if !isDuplicateKey(err) {
			return 0, fmt.Errorf("core: add driver: %w", err)
		}
		s.idMu.Lock()
		s.idsLoaded = false // shared store: another server took the id
		s.idMu.Unlock()
	}
	return 0, fmt.Errorf("core: driver id allocation kept colliding")
}

// DeleteDriver removes a driver row entirely ("Obsolete drivers can be
// disabled by either deleting them or setting the end_date", §4.1.1).
// Permission rows referencing it are removed in the same atomic batch:
// the driver and its permissions all disappear, or — when a statement
// fails — nothing does. An unknown id reports "no driver" and leaves
// every existing driver and permission untouched; permission rows that
// name that id (they can never match) are removed.
func (s *Server) DeleteDriver(driverID int64) error {
	args := []any{sqlmini.Args{"id": driverID}}
	rs, err := s.store.ExecBatch([]Statement{
		{SQL: `DELETE FROM ` + PermissionTable + ` WHERE driver_id = $id`, Args: args},
		{SQL: `DELETE FROM ` + DriversTable + ` WHERE driver_id = $id`, Args: args},
	})
	if err != nil {
		return fmt.Errorf("core: delete driver: %w", err)
	}
	if rs[1].Affected == 0 {
		return fmt.Errorf("core: no driver %d", driverID)
	}
	s.NotifyUpdate("", "")
	return nil
}

// SetPermission inserts a permission row (Table 2), allocating its id.
func (s *Server) SetPermission(p Permission) (int64, error) {
	if !p.RenewPolicy.Valid() || !p.ExpirationPolicy.Valid() {
		return 0, fmt.Errorf("core: invalid policy in permission (renew=%d, expiration=%d)",
			p.RenewPolicy, p.ExpirationPolicy)
	}
	for attempt := 0; attempt < 16; attempt++ {
		s.idMu.Lock()
		if err := s.loadIDsLocked(); err != nil {
			s.idMu.Unlock()
			return 0, err
		}
		s.nextPermID = int64(nextStridedID(uint64(s.nextPermID), s.idOffset, s.idStride))
		p.PermissionID = s.nextPermID
		s.idMu.Unlock()
		err := insertPermission(s.router(), p)
		if err == nil {
			s.NotifyUpdate(p.Database, "")
			return p.PermissionID, nil
		}
		if !isDuplicateKey(err) {
			return 0, fmt.Errorf("core: set permission: %w", err)
		}
		s.idMu.Lock()
		s.idsLoaded = false
		s.idMu.Unlock()
	}
	return 0, fmt.Errorf("core: permission id allocation kept colliding")
}

// ExpirePermission closes a permission row's validity window so it stops
// matching, by pinning start_date = end_date in the past. This keeps the
// paper's Sample-code-2 date predicate verbatim while still supporting
// "setting the end_date to the current_date" revocation.
func (s *Server) ExpirePermission(permissionID int64) error {
	past := time.Unix(0, 0).UTC()
	res, err := s.exec(`UPDATE `+PermissionTable+`
		SET start_date = $t, end_date = $t WHERE permission_id = $id`,
		sqlmini.Args{"t": past, "id": permissionID})
	if err != nil {
		return fmt.Errorf("core: expire permission: %w", err)
	}
	if res.Affected == 0 {
		return fmt.Errorf("core: no permission %d", permissionID)
	}
	s.NotifyUpdate("", "")
	return nil
}

// RevokeDriverForRenewals flips every permission row for driverID to the
// REVOKE policy, so clients are told to stop using it at their next
// renewal even though no replacement exists (paper §3.3).
func (s *Server) RevokeDriverForRenewals(driverID int64) error {
	_, err := s.exec(`UPDATE `+PermissionTable+`
		SET renew_policy = $revoke WHERE driver_id = $id`,
		sqlmini.Args{"revoke": int64(RenewRevoke), "id": driverID})
	if err != nil {
		return fmt.Errorf("core: revoke driver: %w", err)
	}
	s.NotifyUpdate("", "")
	return nil
}

// Drivers lists driver rows without their binaries (admin/experiments).
func (s *Server) Drivers() ([]DriverRecord, error) {
	//lint:scan-ok admin/experiment listing: whole-table read is the point
	res, err := s.exec(`SELECT driver_id, api_name, api_version_major,
		api_version_minor, platform, driver_version_major,
		driver_version_minor, driver_version_micro, binary_format
		FROM ` + DriversTable + ` ORDER BY driver_id`)
	if err != nil {
		return nil, err
	}
	idx := colIndex(res.Cols)
	out := make([]DriverRecord, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, DriverRecord{
			DriverID: row[idx["driver_id"]].Int(),
			APIName:  row[idx["api_name"]].Str(),
			APIMajor: intOrNeg(row[idx["api_version_major"]]),
			APIMinor: intOrNeg(row[idx["api_version_minor"]]),
			Platform: dbver.Platform(row[idx["platform"]].Str()),
			Version: dbver.Version{
				Major: intOrNeg(row[idx["driver_version_major"]]),
				Minor: intOrNeg(row[idx["driver_version_minor"]]),
				Micro: intOrNeg(row[idx["driver_version_micro"]]),
			},
			Format: row[idx["binary_format"]].Str(),
		})
	}
	return out, nil
}

// Permissions lists permission rows (admin/experiments).
func (s *Server) Permissions() ([]Permission, error) {
	//lint:scan-ok admin/experiment listing: whole-table read is the point
	res, err := s.exec(`SELECT permission_id, user, client_ip,
		database, driver_id, driver_options, start_date, end_date,
		lease_time_in_ms, renew_policy, expiration_policy, transfer_method
		FROM ` + PermissionTable + ` ORDER BY permission_id`)
	if err != nil {
		return nil, err
	}
	return scanPermissionRows(res), nil
}
